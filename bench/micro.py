"""Micro rows: each layer's public functions timed on fixed, seeded inputs.

Every row is the median over repeats of the mean time per operation, with
the loop count calibrated so that one repeat lasts at least ``MIN_REPEAT_S``.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from pathlib import Path

import inputs
import policy
from tablepanel import cli
from tablepanel.datasets import DatasetKind, load
from tablepanel.deliberation import DeliberationTrace, run_panel
from tablepanel.extraction import (
    extract_assessment,
    extract_deliberation,
    extract_presentation,
    extract_solution,
    extract_verdict,
)
from tablepanel.gateway import BackendConfig, ChatRequest, OpenAIChatBackend
from tablepanel.metrics import Prediction, score_run
from tablepanel.personas import (
    PromptLibrary,
    Stage,
    default_panel,
    persona_blurb,
    render_prompt,
    task_description_for,
)
from tablepanel.tables import (
    ContextPassages,
    Table,
    TaskKind,
    flatten_table,
    normalize_answer,
    parse_flattened,
)

MIN_REPEAT_S = 0.01
REPEATS = 5


def per_op_us(fn, ops: int = 1, setup=None) -> float:
    """Median µs per operation of ``fn`` (which performs ``ops`` operations);
    ``setup`` builds fresh state for each call, outside the timing."""
    def once(loops: int) -> float:
        total = 0.0
        for _ in range(loops):
            state = setup() if setup else None
            start = time.perf_counter()
            fn(state) if setup else fn()
            total += time.perf_counter() - start
        return total

    loops = 1
    while once(loops) < MIN_REPEAT_S and loops < 1 << 20:
        loops *= 2
    return statistics.median(once(loops) / loops / ops * 1e6 for _ in range(REPEATS))


def _wide_table(rng: random.Random, n_rows: int, n_cols: int) -> Table:
    headers = tuple(f"Col {c}" for c in range(n_cols))
    rows = tuple(tuple(f"{rng.randint(0, 99_999):05d} | v" if c == 1 else f"r{r}c{rng.randint(100, 999)}"
                       for c in range(n_cols)) for r in range(n_rows))
    return Table(headers=headers, rows=rows, caption="Wide table")


def tables_rows(rng: random.Random) -> dict[str, float]:
    small = Table(headers=("Site", "Year", "Units", "Revenue"),
                  rows=tuple(tuple(r) for r in inputs.make_table(rng, 60)))
    wide = _wide_table(rng, 1000, 10)
    out = {}
    for label, table in (("60x4", small), ("1000x10", wide)):
        flat = flatten_table(table, ContextPassages())
        out[f"tables.flatten_table_us.{label}"] = per_op_us(
            lambda t=table: flatten_table(t, ContextPassages()))
        out[f"tables.parse_flattened_us.{label}"] = per_op_us(lambda f=flat: parse_flattened(f))
    answers = [("The 1,450", TaskKind.qa()), ("  5.0 ", TaskKind.sql_denotation()),
               ('"Entailed"', inputs.KINDS["semtabfacts"]), ("NEI", inputs.KINDS["feverous"]),
               ("Cold Harbor 002, Ashby 001", TaskKind.sql_denotation()), ("2:10:45", TaskKind.qa())]
    out["tables.normalize_answer_us"] = per_op_us(
        lambda: [normalize_answer(a, k) for a, k in answers], ops=len(answers))
    return out


def _bindings(flat: str) -> dict[str, str]:
    persona = default_panel().members[0]
    return {"persona": persona_blurb(persona), "task_description": task_description_for(TaskKind.qa()),
            "flattened_input": flat, "query": "How many units did Ashby 001 report? (ref m0000)",
            "complexity": "basic", "notes": "- locate the row\n- read the figure",
            "prior_solution": "12,345",
            "peer_solutions": "\n".join(f"- Member {i}: 12,345 (read from the row)" for i in range(4))}


def personas_extraction_rows(rng: random.Random) -> dict[str, float]:
    flat = flatten_table(Table(headers=("Site", "Year", "Units", "Revenue"),
                               rows=tuple(tuple(r) for r in inputs.make_table(rng, 60))), ContextPassages())
    library, bindings = PromptLibrary.default(), _bindings(flat)
    out = {f"personas.render_prompt_us.{s.value}": per_op_us(lambda s=s: render_prompt(library[s], bindings))
           for s in Stage}
    qa = TaskKind.qa()

    def text(stage: str) -> str:
        return policy.reply("consensus_r1", 0, stage, 0, "12,345", "67,890")

    extractors = {
        "assessment": lambda r=text("assess"): extract_assessment(r),
        "solution": lambda r=text("solve"): extract_solution(r, qa),
        "verdict": lambda r=text("verify"): extract_verdict(r),
        "presentation": lambda r=text("present"): extract_presentation(r, qa),
        "deliberation": lambda r=text("deliberate"): extract_deliberation(r, qa),
    }
    out.update({f"extraction.extract_us.{name}": per_op_us(fn) for name, fn in extractors.items()})
    return out


def datasets_metrics_rows(seed: int, work: Path) -> dict[str, float]:
    """Loading and scoring on two blocks of each kind."""
    out = {}
    groups = {"tatqa": "qa", "semtabfacts": "fact_verify", "wikisql": "sql",
              "feverous": "fact_verify_evidence"}
    for kind, group in groups.items():
        specs = inputs.make_tasks(seed, kind, 2, "m")
        path = inputs.write_corpus(kind, specs, work / "micro" / kind)
        tasks = list(load(DatasetKind(kind), path))
        out[f"datasets.load_us_per_task.{kind}"] = per_op_us(
            lambda k=kind, p=path: list(load(DatasetKind(k), p)), ops=len(tasks))
        preds = [Prediction(t.id, t.gold, t.evidence.correct if t.evidence else None) for t in tasks]
        out[f"metrics.score_run_us_per_task.{group}"] = per_op_us(
            lambda p=preds, t=tasks: score_run(p, t), ops=len(tasks))
    return out


_README_SCRIPT = (
    ("COMPLEXITY: <basic|intermediate|complex>", "COMPLEXITY: basic\nNOTES:\n- direct lookup"),
    ("End your reply with a single line:\nANSWER: <your final answer>", "ANSWER: 42"),
    ("VERDICT: <uncertain|validated>", "VERDICT: validated"),
    ("RATIONALE: <one-line justification>", "RATIONALE: table lookup\nANSWER: 42"),
    ("POSITION: <keep|change>", "POSITION: keep\nANSWER: 42"),
)


def gateway_cli_rows(seed: int, work: Path) -> dict[str, float]:
    """Scripted ``complete`` on the README example script (5 stages × repeat),
    and ``build_backend`` on one bench-offline invocation's script."""
    rng = random.Random(f"{seed}:gateway")
    flat = flatten_table(Table(headers=("Site", "Year", "Units", "Revenue"),
                               rows=tuple(tuple(r) for r in inputs.make_table(rng, 60))), ContextPassages())
    library, bindings = PromptLibrary.default(), _bindings(flat)
    requests_by_stage = [ChatRequest(tuple(render_prompt(library[s], bindings)), "scripted", 0.0)
                         for s in Stage]
    out = {}
    for entries in (200, 2000):
        path = work / f"readme-script-{entries}.json"
        path.write_text(json.dumps({"type": "scripted", "strict": True, "script": [
            {"match": m, "response": r, "repeat": entries // 5} for m, r in _README_SCRIPT]}))
        calls = 50

        def consume(backend):
            for i in range(calls):
                backend.complete(requests_by_stage[i % 5])

        out[f"gateway.scripted_complete_us.{entries}"] = per_op_us(
            consume, ops=calls, setup=lambda p=str(path): cli.build_backend(p))
    specs = inputs.make_tasks(seed, "tatqa", 1, "m")
    script = inputs.write_scripted_backend("tatqa", specs, 1, work / "micro-script.json")
    out["cli.build_backend_ms"] = per_op_us(lambda: cli.build_backend(str(script))) / 1000.0
    return out


def trace_rows(seed: int, work: Path) -> dict[str, float]:
    """Serialization of the adversarial trace (50 records, 60-row table)."""
    specs = [s for s in inputs.make_tasks(seed, "tatqa", 1, "a") if s["scenario"] == "adversarial"][:1]
    path = inputs.write_corpus("tatqa", specs, work / "micro" / "adversarial")
    script = inputs.write_scripted_backend("tatqa", specs, 3, work / "micro-adversarial.json")
    task = next(load(DatasetKind.TATQA, path))
    trace = run_panel(task, cli.resolve_config("full", t_max_panel=3), cli.build_backend(str(script)))
    line = trace.to_json_line()
    return {"deliberation.trace_to_json_us": per_op_us(trace.to_json_line),
            "deliberation.trace_from_json_us": per_op_us(
                lambda: DeliberationTrace.from_json_dict(json.loads(line)))}


def http_rows(stub_url: str) -> dict[str, float]:
    """Serial ``OpenAIChatBackend.complete`` round trips to a zero-delay stub."""
    backend = OpenAIChatBackend(BackendConfig(base_url=stub_url, model_name="stub-model",
                                              api_key_env_var="", max_retries=0))
    flat = flatten_table(Table(headers=("Site", "Year", "Units", "Revenue"),
                               rows=tuple(tuple(r) for r in inputs.make_table(random.Random(0), 60))),
                         ContextPassages())
    request = ChatRequest(tuple(render_prompt(PromptLibrary.default()[Stage.SOLVE], _bindings(flat))),
                          "stub-model", 0.0)
    backend.complete(request)  # warm-up: first connection, lazy imports
    return {"gateway.http_roundtrip_us": per_op_us(lambda: backend.complete(request))}


def micro_policy_tasks() -> list[dict]:
    """The one task the round-trip request refers to."""
    return [{"ref": "m0000", "scenario": "unanimous", "right": "12,345", "wrong": "67,890",
             "malformed": []}]


def all_rows(seed: int, work: Path, stub_url: str) -> dict[str, float]:
    rng = random.Random(f"{seed}:micro")
    out = {}
    out.update(tables_rows(rng))
    out.update(personas_extraction_rows(rng))
    out.update(datasets_metrics_rows(seed, work))
    out.update(gateway_cli_rows(seed, work))
    out.update(trace_rows(seed, work))
    out.update(http_rows(stub_url))
    return out
