"""Operator entry point: ad-hoc questions, benchmark runs, ablation sweeps,
trace scoring.

Exit codes: 0 success, 1 configuration or input parse errors, 2 backend
failures (or runs where every task failed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional, Sequence

from .datasets import DatasetKind, ParseError, fixture_path, load
from .deliberation import (
    DeliberationTrace,
    PipelineConfig,
    ablation_presets,
    run_panel,
)
from .gateway import (
    BackendConfig,
    ChatBackend,
    GatewayError,
    OpenAIChatBackend,
    ScriptedBackend,
    ScriptEntry,
)
from .metrics import METRIC_NAMES, Prediction, score_run
from .personas import Panel, Persona, PromptLibrary
from .tables import (
    ContextPassages,
    Table,
    TaskInstance,
    TaskKind,
    items_of,
    parse_flattened,
)


class CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


def _read_text(path: str, what: str) -> str:
    """The text of a UTF-8 input file, a leading byte-order mark dropped; a
    CliError when it cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise CliError(f"{what} file not found: {path}", 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {what} file {path}: {exc}", 1)


def _load_json_file(path: str, what: str) -> dict:
    try:
        data = json.loads(_read_text(path, what))
    except json.JSONDecodeError as exc:
        raise CliError(f"{what} file {path} is not valid JSON: {exc}", 1)
    if not isinstance(data, dict):
        raise CliError(f"{what} file {path} does not hold a JSON object", 1)
    return data


def _check_keys(data: dict, allowed: set[str], where: str) -> None:
    unknown = data.keys() - allowed
    if unknown:
        raise ValueError(f"{where}unknown key {min(unknown)!r}")


def build_backend(path: str) -> OpenAIChatBackend | ScriptedBackend:
    """Backend config file: {"type": "openai", ...BackendConfig fields} or
    {"type": "scripted", "script": [{"response": str, "match": str?, "repeat":
     int >= 1 (default 1) or null (unlimited)}, ...]} (see gateway). Any other
    key is an error. The caller closes the backend it gets."""
    data = _load_json_file(path, "backend config")
    backend_type = data.get("type", "openai")
    try:
        if backend_type == "scripted":
            if data.get("strict", True) is not True or "fallback" in data:
                raise ValueError('"strict": false and "fallback" are gone; end the script '
                                 'with {"response": FALLBACK, "repeat": null} instead')
            _check_keys(data, {"type", "script", "strict"}, "")
            entries = []
            for item in items_of(data.get("script", []), "script"):
                if not isinstance(item, dict):
                    raise TypeError(f"script entry {item!r} is not an object")
                _check_keys(item, {"response", "match", "repeat"}, f"script entry {item!r}: ")
                entry = ScriptEntry(item["response"], item.get("match"), item.get("repeat", 1))
                if not (isinstance(entry.response, str)
                        and isinstance(entry.matcher, (str, type(None)))):
                    raise TypeError(f"script entry {item!r} needs a string response and match")
                entries.append(entry)
            return ScriptedBackend(entries)
        if backend_type == "openai":
            _check_keys(data, {"type", *(f.name for f in fields(BackendConfig))}, "")
            return OpenAIChatBackend(BackendConfig(**{k: v for k, v in data.items() if k != "type"}))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad backend config: {exc}", 1)
    raise CliError(f"unknown backend type {backend_type!r}", 1)


def resolve_config(
    name_or_path: str,
    seed: Optional[int] = None,
    t_max_panel: Optional[int] = None,
) -> PipelineConfig:
    """A preset name, or a JSON file of PipelineConfig fields whose unset
    fields come from its ``preset`` (or, without one, PipelineConfig's
    defaults; an absent or empty name is the file's stem). ``panel`` is a list of
    {"name", "focus"} objects and ``stages`` a list of stage names; any other
    key is an error. CLI flags (--seed, --t-max) override values from either
    source."""
    presets = ablation_presets(seed if seed is not None else 0)
    flags = {name: value for name, value in (("ordering_seed", seed), ("t_max_panel", t_max_panel))
             if value is not None}
    try:
        if name_or_path in presets:
            return replace(presets[name_or_path], **flags)
        if not Path(name_or_path).exists():
            raise CliError(
                f"unknown config {name_or_path!r}; valid presets: {', '.join(presets)}", 1
            )
        data = _load_json_file(name_or_path, "pipeline config")
        _check_keys(data, {"preset", *(f.name for f in fields(PipelineConfig))}, "")
        base = data.get("preset")
        if base is not None and base not in presets:
            raise CliError(f"unknown preset {base!r}; valid: {', '.join(presets)}", 1)
        if base is None and "panel" not in data:
            raise CliError("pipeline config needs a 'panel' or a 'preset'", 1)
        changes = {f.name: data[f.name] for f in fields(PipelineConfig) if f.name in data}
        if changes.get("name") in (None, ""):
            changes["name"] = Path(name_or_path).stem
        if "stages" in data:
            changes["stages"] = items_of(data["stages"], "stages")
        if "panel" in data:
            members = []
            for item in items_of(data["panel"], "panel"):
                if not isinstance(item, dict):
                    raise TypeError(f"panel member {item!r} is not an object")
                _check_keys(item, {"name", "focus"}, f"panel member {item!r}: ")
                members.append(Persona(item["name"], item["focus"]))
            changes["panel"] = Panel(tuple(members))
        changes.update(flags)
        return replace(presets[base], **changes) if base is not None else PipelineConfig(**changes)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad pipeline config: {exc}", 1)


def _read_table_file(path: str) -> tuple[Table, ContextPassages]:
    text = _read_text(path, "table")
    try:
        if Path(path).suffix.lower() == ".csv":
            # A blank line is an empty record, not a row; a quoted "" is a row.
            rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
            if not rows:
                raise ValueError("empty CSV file")
            return Table(headers=tuple(rows[0]), rows=tuple(tuple(r) for r in rows[1:])), ContextPassages()
        return parse_flattened(text.rstrip("\n"))
    except ValueError as exc:
        raise CliError(f"cannot parse table file {path}: {exc}", 1)


def _load_tasks(kind: DatasetKind, path: str, limit: Optional[int]) -> list[TaskInstance]:
    if limit is not None and limit < 1:
        raise CliError("--limit must be >= 1", 1)
    source = fixture_path(kind) if path == "fixture" else Path(path)
    if not source.exists():
        raise CliError(f"dataset file not found: {source}", 1)
    try:
        tasks = list(load(kind, source, limit))
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot load dataset: {exc}", 1)
    seen = set()
    for task in tasks:
        if task.id in seen:
            raise CliError(f"cannot load dataset: duplicate task id {task.id!r}", 1)
        seen.add(task.id)
    return tasks


def _bench_tasks(args) -> list[TaskInstance]:
    """The tasks of a ``bench`` or ``ablate`` run, once --jobs is checked."""
    if args.jobs < 1:
        raise CliError("--jobs must be >= 1", 1)
    tasks = _load_tasks(DatasetKind(args.kind), args.path, args.limit)
    if not tasks:
        raise CliError("dataset yielded no tasks", 1)
    return tasks


def _templates(args) -> PromptLibrary:
    if not args.templates:
        return PromptLibrary.default()
    if not Path(args.templates).is_dir():
        raise CliError(f"templates directory not found: {args.templates}", 1)
    try:
        return PromptLibrary.from_dir(args.templates)
    except (OSError, ValueError) as exc:
        raise CliError(f"bad templates in {args.templates}: {exc}", 1)


def _out_dir(path: str) -> Path:
    """Create the output directory before the backend is built, so that an
    unwritable one costs no run."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", 1)
    return Path(path)


def _score(
    tasks: Sequence[TaskInstance], traces: Sequence[Optional[DeliberationTrace]]
) -> Optional[dict]:
    """The report, as ``report.json`` holds it, over the tasks whose trace
    (None: no trace) completed with an answer; None when no task did."""
    scored = [(task, trace) for task, trace in zip(tasks, traces)
              if trace is not None and trace.complete and trace.final is not None]
    if not scored:
        return None
    preds = [Prediction(task_id=task.id, answer=trace.final,
                        evidence_correct=task.evidence.correct if task.evidence is not None else None)
             for task, trace in scored]
    return score_run(preds, [task for task, _ in scored]).to_json_dict()


def _write_traces(path: Path, traces: Sequence[DeliberationTrace]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for trace in traces:
            fh.write(trace.to_json_line() + "\n")


def cmd_ask(args) -> int:
    table, context = _read_table_file(args.table)
    config = resolve_config(args.config, args.seed, args.t_max)
    try:
        task = TaskInstance(id="adhoc", table=table, context=context, query=args.query,
                            kind=TaskKind.qa())
    except ValueError as exc:
        raise CliError(str(exc), 1)
    templates = _templates(args)
    if args.trace and (Path(args.trace).is_dir() or not Path(args.trace).parent.is_dir()):
        raise CliError(f"cannot write {args.trace}: not a file in an existing directory", 1)
    with closing(build_backend(args.backend)) as backend:
        trace = run_panel(task, config, backend, templates)
    if args.trace:
        _write_traces(Path(args.trace), [trace])
    if not trace.complete or trace.final is None:
        raise CliError(f"run failed: {trace.error}", 2)
    print(trace.final.raw)
    return 0


def _run(args, config: PipelineConfig, tasks: list[TaskInstance], templates: PromptLibrary,
         out: Optional[Path]) -> tuple[dict, Optional[dict]]:
    """Run ``tasks`` under ``config`` on a fresh backend and score them; the
    run's manifest and report (None: no task scored). With ``out``, write
    ``traces.jsonl``, ``report.json`` (or remove an earlier one) and, last,
    ``manifest.json`` there."""
    with closing(build_backend(args.backend)) as backend:
        started = _now()
        # Tasks run ``--jobs`` at a time; each run_panel may fan its agents out
        # over threads of its own (see deliberation). An interrupt stops the
        # map, which cancels the tasks not yet started; the ones in flight finish.
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            traces = list(pool.map(lambda task: run_panel(task, config, backend, templates), tasks))
        finished = _now()
    failures = [t.task_id for t in traces if not t.complete or t.final is None]
    report = _score(tasks, traces)
    # Reproducibility record for the run; never holds the API key.
    manifest = {
        "config_name": config.name,
        "config_digest": config.digest(),
        "dataset": {"kind": args.kind, "path": str(args.path)},
        "backend": _backend_summary(backend),
        "started": started,
        "finished": finished,
        "totals": {
            "tasks": len(tasks),
            "llm_calls": sum(t.llm_calls for t in traces),
            "errors": len(failures),
            "failed_task_ids": failures,
        },
    }
    if out is not None:  # the manifest goes last: it marks a finished run
        (out / "manifest.json").unlink(missing_ok=True)
        _write_traces(out / "traces.jsonl", traces)
        if report is None:
            (out / "report.json").unlink(missing_ok=True)
        else:
            (out / "report.json").write_text(json.dumps(report, sort_keys=True) + "\n",
                                             encoding="utf-8")
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return manifest, report


def cmd_bench(args) -> int:
    tasks = _bench_tasks(args)
    config = resolve_config(args.config, args.seed, args.t_max)
    templates = _templates(args)
    _, report = _run(args, config, tasks, templates, _out_dir(args.out))
    if report is None:
        print(json.dumps({"error": "all tasks failed"}, sort_keys=True))
        return 2
    print(json.dumps(report, sort_keys=True))
    return 0


def _backend_summary(backend: ChatBackend) -> dict:
    if isinstance(backend, OpenAIChatBackend):
        return {"model_name": backend.config.model_name, "base_url": backend.config.base_url}
    return {"model_name": backend.model_name, "base_url": "scripted"}


def cmd_ablate(args) -> int:
    tasks = _bench_tasks(args)
    templates = _templates(args)
    configs = [resolve_config(name, args.seed, args.t_max) for name in ablation_presets()]
    # Every row's directory is made before the first backend call.
    outs = [None if args.out is None else _out_dir(str(Path(args.out, c.name)))
            for c in configs]
    if args.out is not None:  # an earlier run's rollup would outlive an interrupt
        Path(args.out, "ablation.json").unlink(missing_ok=True)
    rows = []
    for config, out in zip(configs, outs):  # a fresh backend per row
        manifest, report = _run(args, config, tasks, templates, out)
        totals = manifest["totals"]
        rows.append({"preset": config.name, "report": report,
                     **{key: totals[key] for key in ("tasks", "errors", "llm_calls")}})
    if args.out is not None:
        Path(args.out, "ablation.json").write_text(
            json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    _print_ablation_table(rows)
    if all(r["report"] is None for r in rows):
        return 2
    return 0


def _print_ablation_table(rows: list[dict]) -> None:
    metric_names = [c for c in METRIC_NAMES
                    if any(r["report"] and c in r["report"] for r in rows)]
    header = ["preset", "tasks", "errors", "calls"] + metric_names
    widths = [max(len(header[0]), max(len(r["preset"]) for r in rows))] + [8] * (len(header) - 1)
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        cells = [r["preset"].ljust(widths[0]), str(r["tasks"]).ljust(8),
                 str(r["errors"]).ljust(8), str(r["llm_calls"]).ljust(8)]
        for name in metric_names:
            value = r["report"].get(name) if r["report"] else None
            cells.append(("-" if value is None else f"{value:.3f}").ljust(8))
        print("  ".join(cells).rstrip())


def cmd_score(args) -> int:
    kind = DatasetKind(args.kind)
    tasks = _load_tasks(kind, args.path, args.limit)
    by_id = {}
    # Only "\n" ends a trace line: a reply may hold U+2028 and its kin raw.
    for lineno, line in enumerate(_read_text(args.trace_file, "trace").split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            trace = DeliberationTrace.from_json_dict(json.loads(line))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CliError(f"trace line {lineno}: {exc}", 1)
        if trace.task_id in by_id:
            raise CliError(f"trace line {lineno}: repeated task id {trace.task_id!r}", 1)
        by_id[trace.task_id] = trace
    report = _score(tasks, [by_id.get(task.id) for task in tasks])
    if report is None:
        raise CliError("no scorable traces for this dataset", 1)
    print(json.dumps(report, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tablepanel",
        description="Panel-of-agents deliberation over tables: ask, bench, ablate, score.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = [k.value for k in DatasetKind]

    def add_common(p):
        p.add_argument("--backend", required=True, help="backend config JSON file")
        p.add_argument("--templates", help="directory of stage template overrides")
        p.add_argument("--seed", type=int, default=None, help="ordering/panel seed")
        p.add_argument("--t-max", type=int, default=None, dest="t_max",
                       help="override deliberation round cap")

    def add_dataset(p, jobs: bool = True):
        p.add_argument("kind", choices=kinds)
        p.add_argument("path", help="dataset file, or 'fixture' for the bundled mini corpus")
        if jobs:
            p.add_argument("--jobs", type=int, default=1, help="task-level parallelism")
        p.add_argument("--limit", type=int, default=None)

    ask = sub.add_parser("ask", help="answer one ad-hoc question about a table file")
    ask.add_argument("--table", required=True, help="CSV file or flattened-grammar text file")
    ask.add_argument("--query", required=True)
    ask.add_argument("--trace", help="write the run trace to this JSONL path")
    add_common(ask)
    ask.set_defaults(func=cmd_ask)

    bench = sub.add_parser("bench", help="run a dataset and print a metric report")
    add_dataset(bench)
    bench.add_argument("--out", default="runs/bench", help="output directory")
    add_common(bench)
    bench.set_defaults(func=cmd_bench)
    for p in (ask, bench):  # ablate runs every preset
        p.add_argument("--config", default="full", help="preset name or JSON config file")

    ablate = sub.add_parser("ablate", help="run every pipeline preset over one dataset")
    add_dataset(ablate)
    ablate.add_argument("--out", default=None)
    add_common(ablate)
    ablate.set_defaults(func=cmd_ablate)

    score = sub.add_parser("score", help="re-score a trace file offline (no backend calls)")
    score.add_argument("trace_file")
    add_dataset(score, jobs=False)
    score.set_defaults(func=cmd_score)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except GatewayError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
