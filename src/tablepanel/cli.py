"""Operator entry point: ad-hoc questions, benchmark runs, ablation sweeps,
trace scoring.

Exit codes: 0 success, 1 configuration or input parse errors, 2 backend
failures (or runs where every task failed).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from .datasets import DatasetKind, ParseError, fixture_path, load
from .deliberation import (
    DeliberationTrace,
    InvalidConfig,
    PipelineConfig,
    StageName,
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
from .metrics import MetricReport, Prediction, score_run
from .personas import Panel, Persona, PromptLibrary
from .tables import (
    ContextPassages,
    Query,
    Table,
    TaskInstance,
    TaskKind,
    UnknownLabel,
    parse_flattened,
)


class CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


@dataclass
class RunManifest:
    """Reproducibility record for one run; never contains the API key."""

    config_name: str
    config_digest: str
    dataset: dict
    backend: dict
    started: str
    finished: str
    totals: dict

    def to_json_dict(self) -> dict:
        return asdict(self)


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


def _load_json_file(path: str, what: str) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CliError(f"{what} file not found: {path}", 1)
    except json.JSONDecodeError as exc:
        raise CliError(f"{what} file {path} is not valid JSON: {exc}", 1)
    if not isinstance(data, dict):
        raise CliError(f"{what} file {path} does not hold a JSON object", 1)
    return data


def build_backend(path: str) -> OpenAIChatBackend | ScriptedBackend:
    """Backend config file: {"type": "openai", ...BackendConfig fields} or
    {"type": "scripted", "script": [{"response": str, "match": str?, "repeat":
     int >= 1 (default 1) or null (unlimited)}, ...]} (see gateway). The
    caller closes the backend it gets."""
    data = _load_json_file(path, "backend config")
    backend_type = data.get("type", "openai")
    try:
        if backend_type == "scripted":
            if data.get("strict", True) is not True or "fallback" in data:
                raise ValueError('"strict": false and "fallback" are gone; end the script '
                                 'with {"response": FALLBACK, "repeat": null} instead')
            entries = []
            for item in data.get("script", []):
                entry = ScriptEntry(item["response"], item.get("match"), item.get("repeat", 1))
                if not (isinstance(entry.response, str)
                        and isinstance(entry.matcher, (str, type(None)))):
                    raise TypeError(f"script entry {item!r} needs a string response and match")
                entries.append(entry)
            return ScriptedBackend(entries)
        if backend_type == "openai":
            fields = {k: v for k, v in data.items() if k != "type"}
            return OpenAIChatBackend(BackendConfig(**fields))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad backend config: {exc}", 1)
    raise CliError(f"unknown backend type {backend_type!r}", 1)


def resolve_config(
    name_or_path: str,
    seed: Optional[int] = None,
    t_max_panel: Optional[int] = None,
) -> PipelineConfig:
    """A preset name, or a JSON file mirroring PipelineConfig. CLI flags
    (--seed, --t-max) override values from either source."""
    presets = ablation_presets(seed if seed is not None else 0)
    if name_or_path in presets:
        config = presets[name_or_path]
    elif Path(name_or_path).exists():
        data = _load_json_file(name_or_path, "pipeline config")
        try:
            base = data.get("preset")
            if base is not None and base not in presets:
                raise CliError(f"unknown preset {base!r}; valid: {', '.join(presets)}", 1)
            panel = (
                Panel(tuple(Persona(p["name"], p["focus"]) for p in data["panel"]))
                if "panel" in data
                else presets[base].panel if base else None
            )
            if panel is None:
                raise CliError("pipeline config needs a 'panel' or a 'preset'", 1)
            stages = (
                frozenset(StageName(s) for s in data["stages"])
                if "stages" in data
                else presets[base].stages if base else frozenset()
            )
            config = PipelineConfig(
                panel=panel,
                stages=stages,
                t_max_self=data.get("t_max_self", 1),
                t_max_panel=data.get("t_max_panel", 1),
                ordering_seed=data.get("ordering_seed", 0),
                format_retry=data.get("format_retry", 1),
                name=data.get("name", Path(name_or_path).stem),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CliError(f"bad pipeline config: {exc}", 1)
    else:
        raise CliError(
            f"unknown config {name_or_path!r}; valid presets: {', '.join(presets)}", 1
        )
    overrides = {}
    if seed is not None:
        overrides["ordering_seed"] = seed
    if t_max_panel is not None:
        overrides["t_max_panel"] = t_max_panel
    return replace(config, **overrides)


def _read_table_file(path: str) -> tuple[Table, ContextPassages]:
    file = Path(path)
    if not file.exists():
        raise CliError(f"table file not found: {path}", 1)
    text = file.read_text(encoding="utf-8")
    try:
        if file.suffix.lower() == ".csv":
            rows = list(csv.reader(text.splitlines()))
            if not rows:
                raise ValueError("empty CSV file")
            return Table(headers=tuple(rows[0]), rows=tuple(tuple(r) for r in rows[1:])), ContextPassages()
        return parse_flattened(text.rstrip("\n"))
    except ValueError as exc:
        raise CliError(f"cannot parse table file {path}: {exc}", 1)


def _load_tasks(kind: DatasetKind, path: str, limit: Optional[int]) -> list[TaskInstance]:
    source = fixture_path(kind) if path == "fixture" else Path(path)
    if not source.exists():
        raise CliError(f"dataset file not found: {source}", 1)
    try:
        return list(load(kind, source, limit))
    except (ParseError, UnknownLabel, FileNotFoundError) as exc:
        raise CliError(f"cannot load dataset: {exc}", 1)


def _templates(args) -> PromptLibrary:
    if getattr(args, "templates", None):
        return PromptLibrary.from_dir(args.templates)
    return PromptLibrary.default()


def _run_tasks(
    tasks: Sequence[TaskInstance],
    config: PipelineConfig,
    backend: ChatBackend,
    templates: PromptLibrary,
    jobs: int,
) -> list[DeliberationTrace]:
    # Tasks run ``jobs`` at a time; each run_panel may fan its agents out over
    # up to PANEL_WIDTH_MAX threads of its own (see deliberation).
    if jobs <= 1:
        return [run_panel(task, config, backend, templates) for task in tasks]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(run_panel, task, config, backend, templates) for task in tasks]
        return [f.result() for f in futures]


def _predictions(
    tasks: Sequence[TaskInstance], traces: Sequence[Optional[DeliberationTrace]]
) -> list[Prediction]:
    """One prediction per task whose trace (None: no trace) completed with an
    answer."""
    preds = []
    for task, trace in zip(tasks, traces):
        if trace is None or not trace.complete or trace.final is None:
            continue
        evidence_correct = task.evidence.correct if task.evidence is not None else None
        preds.append(Prediction(task_id=task.id, answer=trace.final, evidence_correct=evidence_correct))
    return preds


def _score_subset(tasks: Sequence[TaskInstance], preds: Sequence[Prediction]) -> Optional[MetricReport]:
    scored_ids = {p.task_id for p in preds}
    scorable = [t for t in tasks if t.id in scored_ids]
    if not scorable:
        return None
    return score_run(list(preds), scorable)


def _write_traces(path: Path, traces: Sequence[DeliberationTrace]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for trace in traces:
            fh.write(trace.to_json_line() + "\n")


def cmd_ask(args) -> int:
    table, context = _read_table_file(args.table)
    config = resolve_config(args.config, args.seed, args.t_max)
    task = TaskInstance(
        id="adhoc",
        table=table,
        context=context,
        query=Query(args.query),
        kind=TaskKind.qa(),
    )
    with closing(build_backend(args.backend)) as backend:
        try:
            trace = run_panel(task, config, backend, _templates(args))
        except InvalidConfig as exc:
            raise CliError(str(exc), 1)
    if args.trace:
        _write_traces(Path(args.trace), [trace])
    if not trace.complete or trace.final is None:
        raise CliError(f"run failed: {trace.error}", 2)
    print(trace.final.raw)
    return 0


def _bench_once(
    tasks: list[TaskInstance],
    config: PipelineConfig,
    backend: ChatBackend,
    templates: PromptLibrary,
    jobs: int,
) -> tuple[list[DeliberationTrace], Optional[MetricReport], list[str]]:
    traces = _run_tasks(tasks, config, backend, templates, jobs)
    failures = [t.task_id for t in traces if not t.complete or t.final is None]
    report = _score_subset(tasks, _predictions(tasks, traces))
    return traces, report, failures


def cmd_bench(args) -> int:
    kind = DatasetKind(args.kind)
    tasks = _load_tasks(kind, args.path, args.limit)
    if not tasks:
        raise CliError("dataset yielded no tasks", 1)
    config = resolve_config(args.config, args.seed, args.t_max)
    templates = _templates(args)

    with closing(build_backend(args.backend)) as backend:
        started = _now()
        traces, report, failures = _bench_once(tasks, config, backend, templates, args.jobs)
        finished = _now()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_traces(out / "traces.jsonl", traces)
    manifest = RunManifest(
        config_name=config.name or args.config,
        config_digest=config.digest(),
        dataset={"kind": kind.value, "path": str(args.path)},
        backend=_backend_summary(backend),
        started=started,
        finished=finished,
        totals={
            "tasks": len(tasks),
            "llm_calls": sum(t.llm_calls for t in traces),
            "errors": len(failures),
            "failed_task_ids": failures,
        },
    )
    (out / "manifest.json").write_text(
        json.dumps(manifest.to_json_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if report is None:
        print(json.dumps({"error": "all tasks failed"}, sort_keys=True))
        return 2
    report_json = json.dumps(report.to_json_dict(), sort_keys=True)
    (out / "report.json").write_text(report_json + "\n", encoding="utf-8")
    print(report_json)
    return 0


def _backend_summary(backend: ChatBackend) -> dict:
    if isinstance(backend, OpenAIChatBackend):
        return {"model_name": backend.config.model_name, "base_url": backend.config.base_url}
    return {"model_name": backend.model_name, "base_url": "scripted"}


_REPORT_COLUMNS = ("em", "f1", "denotation_acc", "micro_f1", "label_acc", "feverous_score")


def cmd_ablate(args) -> int:
    kind = DatasetKind(args.kind)
    tasks = _load_tasks(kind, args.path, args.limit)
    if not tasks:
        raise CliError("dataset yielded no tasks", 1)
    templates = _templates(args)
    rows = []
    for name in ablation_presets():
        config = resolve_config(name, args.seed, args.t_max)
        with closing(build_backend(args.backend)) as backend:  # fresh backend per preset row
            traces, report, failures = _bench_once(tasks, config, backend, templates, args.jobs)
        rows.append({
            "preset": name,
            "tasks": len(tasks),
            "errors": len(failures),
            "llm_calls": sum(t.llm_calls for t in traces),
            "report": report.to_json_dict() if report else None,
        })
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "ablation.json").write_text(
            json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    _print_ablation_table(rows)
    if all(r["report"] is None for r in rows):
        return 2
    return 0


def _print_ablation_table(rows: list[dict]) -> None:
    metric_names = [c for c in _REPORT_COLUMNS
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
    trace_file = Path(args.trace_file)
    if not trace_file.exists():
        raise CliError(f"trace file not found: {args.trace_file}", 1)
    by_id = {}
    with trace_file.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                trace = DeliberationTrace.from_json_dict(json.loads(line))
                by_id[trace.task_id] = trace
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise CliError(f"trace line {lineno}: {exc}", 1)
    report = _score_subset(tasks, _predictions(tasks, [by_id.get(task.id) for task in tasks]))
    if report is None:
        raise CliError("no scorable traces for this dataset", 1)
    print(json.dumps(report.to_json_dict(), sort_keys=True))
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

    ask = sub.add_parser("ask", help="answer one ad-hoc question about a table file")
    ask.add_argument("--table", required=True, help="CSV file or flattened-grammar text file")
    ask.add_argument("--query", required=True)
    ask.add_argument("--trace", help="write the run trace to this JSONL path")
    add_common(ask)
    ask.set_defaults(func=cmd_ask)

    bench = sub.add_parser("bench", help="run a dataset and print a metric report")
    bench.add_argument("kind", choices=kinds)
    bench.add_argument("path", help="dataset file, or 'fixture' for the bundled mini corpus")
    bench.add_argument("--jobs", type=int, default=1, help="task-level parallelism")
    bench.add_argument("--limit", type=int, default=None)
    bench.add_argument("--out", default="runs/bench", help="output directory")
    add_common(bench)
    bench.set_defaults(func=cmd_bench)
    for p in (ask, bench):  # ablate runs every preset
        p.add_argument("--config", default="full", help="preset name or JSON config file")

    ablate = sub.add_parser("ablate", help="run every pipeline preset over one dataset")
    ablate.add_argument("kind", choices=kinds)
    ablate.add_argument("path")
    ablate.add_argument("--jobs", type=int, default=1)
    ablate.add_argument("--limit", type=int, default=None)
    ablate.add_argument("--out", default=None)
    add_common(ablate)
    ablate.set_defaults(func=cmd_ablate)

    score = sub.add_parser("score", help="re-score a trace file offline (no backend calls)")
    score.add_argument("trace_file")
    score.add_argument("kind", choices=kinds)
    score.add_argument("path")
    score.add_argument("--limit", type=int, default=None)
    score.set_defaults(func=cmd_score)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except InvalidConfig as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GatewayError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
