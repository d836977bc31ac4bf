"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 9 (live smoke) is network-gated: set PANEL_SMOKE_BASE_URL,
PANEL_SMOKE_MODEL, and the key env var named by PANEL_SMOKE_KEY_VAR
(default PANEL_API_KEY) to enable it.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import string

import pytest

from tablepanel.cli import main
from tablepanel.datasets import DatasetKind, fixture
from tablepanel.deliberation import (
    OUTCOME_MAJORITY_VOTE,
    OUTCOME_UNANIMOUS_INITIAL,
    PipelineConfig,
    StageName,
    ablation_presets,
    majority_vote,
    run_panel,
    self_review,
)
from tablepanel.extraction import (
    AnalyticalNotes,
    Complexity,
    Verdict,
    extract_assessment,
    extract_deliberation,
    extract_presentation,
    extract_solution,
    extract_verdict,
)
from tablepanel.gateway import BackendConfig, OpenAIChatBackend
from tablepanel.metrics import Prediction, denotation_accuracy, exact_match, feverous_score, micro_f1_3way, token_f1
from tablepanel.personas import OUTPUT_CONTRACTS, Stage
from tablepanel.tables import Answer, TaskKind

from conftest import (
    assessment_text,
    make_backend,
    make_run,
    stage_entries,
    stage_entry,
    unanimity_script,
)

QA = TaskKind.qa()


def _ok(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


def _script_items(answer: str = "42") -> list[dict]:
    return [
        {"match": OUTPUT_CONTRACTS[Stage.ASSESS],
         "response": "COMPLEXITY: basic\nNOTES:\n- direct lookup", "repeat": None},
        {"match": OUTPUT_CONTRACTS[Stage.SOLVE],
         "response": f"ANSWER: {answer}", "repeat": None},
        {"match": OUTPUT_CONTRACTS[Stage.VERIFY],
         "response": "VERDICT: validated", "repeat": None},
        {"match": OUTPUT_CONTRACTS[Stage.PRESENT],
         "response": f"RATIONALE: table lookup\nANSWER: {answer}", "repeat": None},
    ]


def test_criterion_1_protocol_replay_determinism(tmp_path, capsys):
    """Two scripted bench runs with fixed seeds produce byte-identical traces
    and reports."""
    backend_file = tmp_path / "backend.json"
    backend_file.write_text(json.dumps({"type": "scripted", "script": _script_items()}),
                            encoding="utf-8")
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(["bench", "tatqa", "fixture", "--config", "full",
                     "--backend", str(backend_file), "--seed", "17", "--out", str(out)])
        assert code == 0
        outputs.append(out)
    first, second = outputs
    assert (first / "traces.jsonl").read_bytes() == (second / "traces.jsonl").read_bytes()
    assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
    _ok(1, "byte-identical traces and reports across replayed bench runs")


def test_criterion_2_unanimity_short_circuit(qa_task):
    """All five agents presenting the same normalized answer ends the run at
    UNANIMOUS_INITIAL with zero rounds and exactly 5 PRESENT calls beyond
    investigation."""
    config = ablation_presets(seed=2)["full"]
    backend = make_backend(unanimity_script("B-1"))
    trace = run_panel(qa_task, config, backend)
    assert trace.outcome == OUTCOME_UNANIMOUS_INITIAL
    assert trace.rounds == []
    present_calls = [r for r in trace.records if r.stage == Stage.PRESENT.value]
    assert len(present_calls) == 5
    investigation_calls = [r for r in trace.records
                           if r.stage in (Stage.ASSESS.value, Stage.SOLVE.value, Stage.VERIFY.value)]
    assert trace.llm_calls == len(investigation_calls) + 5
    _ok(2, "unanimous presentations short-circuit with exactly 5 PRESENT calls")


@pytest.mark.parametrize("t_max", [1, 2, 3, 5])
def test_criterion_3_iteration_caps(qa_task, t_max):
    """A never-converging panel runs exactly t_max deliberation rounds and
    falls back to majority voting."""
    distinct = ["V-1", "W-2", "X-3", "Y-4", "Z-5"]
    config = PipelineConfig(
        panel=ablation_presets()["full"].panel,
        stages=frozenset({StageName.INVESTIGATION, StageName.PEER_REVIEW}),
        t_max_panel=t_max,
        ordering_seed=3,
    )
    entries = (
        stage_entries(Stage.ASSESS, assessment_text(), 5)
        + stage_entries(Stage.SOLVE, "ANSWER: seed", 5)
        + [stage_entry(Stage.PRESENT, f"RATIONALE: mine\nANSWER: {a}") for a in distinct]
    )
    for _ in range(t_max):
        entries += [stage_entry(Stage.DELIBERATE, f"POSITION: keep\nANSWER: {a}")
                    for a in distinct]
    trace = run_panel(qa_task, config, make_backend(entries))
    assert len(trace.rounds) == t_max
    assert trace.outcome == OUTCOME_MAJORITY_VOTE
    _ok(3, f"t_max_panel={t_max} yields exactly {t_max} rounds then majority vote")


def test_criterion_4_voting_oracle():
    """majority_vote matches an exhaustive count-and-tie-break oracle on all
    3^5 assignments of 5 agents to 3 answers."""
    order = ["E", "N", "M", "A", "T"]
    values = ["x", "y", "z"]
    checked = 0
    for combo in itertools.product(values, repeat=5):
        solutions = {name: Answer.from_raw(v, QA) for name, v in zip(order, combo)}
        got = majority_vote(solutions, order).normalized
        best = None
        for value in set(combo):
            key = (-combo.count(value), combo.index(value))
            if best is None or key < best[0]:
                best = (key, value)
        assert got == best[1], f"disagreement on {combo}"
        checked += 1
    assert checked == 3 ** 5
    _ok(4, "majority_vote equals the brute-force oracle on all 243 assignments")


def test_criterion_5_self_review_loop_semantics(qa_task):
    """Scripted verdict sequences produce the derived call counts and final
    solutions for t_max_self in {1, 2}."""
    def prepared_agent():
        from tablepanel.deliberation import AgentState, investigate
        from tablepanel.personas import default_panel
        agent = AgentState(persona=default_panel().members[0])
        investigate(make_run(qa_task, make_backend([
            stage_entry(Stage.ASSESS, assessment_text()),
            stage_entry(Stage.SOLVE, "ANSWER: 5"),
        ])), agent)
        return agent

    refine = [stage_entry(Stage.ASSESS, assessment_text()),
              stage_entry(Stage.SOLVE, "ANSWER: 7")]
    uncertain = stage_entry(Stage.VERIFY, "VERDICT: uncertain")
    validated = stage_entry(Stage.VERIFY, "VERDICT: validated")

    cases = [
        # (t_max_self, script, expected_calls, expected_final, expected_verdict)
        (1, [validated], 1, "5", Verdict.VALIDATED),
        (2, [validated], 1, "5", Verdict.VALIDATED),
        (1, [uncertain] + refine + [validated], 4, "7", Verdict.VALIDATED),
        (2, [uncertain] + refine + [validated], 4, "7", Verdict.VALIDATED),
        (1, [uncertain] + refine + [uncertain], 4, "7", Verdict.UNCERTAIN),
        (2, [uncertain] + refine + [uncertain]
            + [stage_entry(Stage.ASSESS, assessment_text()),
               stage_entry(Stage.SOLVE, "ANSWER: 9"), uncertain], 7, "9", Verdict.UNCERTAIN),
    ]
    for t_max_self, script, expected_calls, expected_final, expected_verdict in cases:
        agent = prepared_agent()
        run = make_run(qa_task, make_backend(list(script)), t_max_self=t_max_self)
        self_review(run, agent)
        assert run.recorder.calls == expected_calls, (t_max_self, expected_calls)
        assert agent.current_solution.raw == expected_final
        assert agent.verdict is expected_verdict
    _ok(5, "verify/refine loop matches derived call counts and final solutions")


def test_criterion_6_ablation_preset_fidelity(qa_task):
    """Each of the 10 presets activates its declared stages and spends the
    call budget derived from the state machine under scripted unanimity."""
    presets = ablation_presets(seed=5)
    sizes = {name: len(config.panel) for name, config in presets.items()}
    inv, slf, peer = StageName.INVESTIGATION, StageName.SELF_REVIEW, StageName.PEER_REVIEW

    def expected_calls(config) -> int:
        n = len(config.panel)
        per_agent = 2 if inv in config.stages else 1
        if slf in config.stages:
            per_agent += 1  # immediate validated verdict
        presents = n if peer in config.stages else 0
        return n * per_agent + presents

    expected_stagesets = {
        "vanilla": set(), "vanilla+self": {slf}, "vanilla+peer": {peer},
        "vanilla+self+peer": {slf, peer}, "investigation": {inv},
        "investigation+self": {inv, slf}, "investigation+peer": {inv, peer},
        "full": {inv, slf, peer}, "full-random-role": {inv, slf, peer},
        "full-alt-role": {inv, slf, peer},
    }
    assert len(presets) == 10
    for name, config in presets.items():
        assert config.stages == frozenset(expected_stagesets[name]), name
        backend = make_backend(unanimity_script("B-1", agents=len(config.panel)))
        trace = run_panel(qa_task, config, backend)
        assert trace.complete, (name, trace.error)
        assert trace.llm_calls == expected_calls(config), name
    assert expected_calls(presets["vanilla"]) == 1
    assert expected_calls(presets["full"]) == 20
    _ok(6, f"10 presets match derived call budgets (vanilla=1, full=20, "
           f"random-role panel={sizes['full-random-role']})")


def test_criterion_7_metrics_oracle_suite():
    """All worked metric examples hold to 1e-9, and micro-F1 equals a
    counting-oracle accuracy on 1000 random single-label vectors."""
    tol = 1e-9
    qa = lambda t: Answer.from_raw(t, QA)
    sql = lambda t: Answer.from_raw(t, TaskKind.sql_denotation())
    labels = ("entailed", "refuted", "unknown")
    fact = lambda t: Answer.from_raw(t, TaskKind.fact_verify(labels))

    assert exact_match(qa("1,000"), qa("1000")) == 1
    assert exact_match(qa("100"), qa("120")) == 0
    assert abs(token_f1(qa("net income 2019"), qa("net income")) - 0.8) < tol
    assert token_f1(qa("alpha beta"), qa("alpha beta")) == 1.0
    assert token_f1(qa("alpha"), qa("beta")) == 0.0
    assert denotation_accuracy([sql("b, a")], [sql("a, b")]) == 1.0
    preds10 = [sql(str(i)) for i in range(10)]
    golds10 = [sql(str(i if i < 7 else 99)) for i in range(10)]
    assert abs(denotation_accuracy(preds10, golds10) - 0.7) < tol
    golds = ["entailed"] * 5 + ["refuted"] * 3 + ["unknown"] * 2
    preds = list(golds)
    preds[0], preds[5], preds[8] = "refuted", "unknown", "entailed"
    assert abs(micro_f1_3way(preds, golds, labels) - 0.7) < tol
    assert micro_f1_3way(["unknown"] * 3, ["entailed"] * 3, labels) == 0.0
    fev_golds = [fact("entailed")] * 4
    fev_preds = [
        Prediction("1", fact("entailed"), evidence_correct=True),
        Prediction("2", fact("entailed"), evidence_correct=True),
        Prediction("3", fact("entailed"), evidence_correct=False),
        Prediction("4", fact("refuted"), evidence_correct=True),
    ]
    label_acc, strict = feverous_score(fev_preds, fev_golds)
    assert abs(label_acc - 0.75) < tol and abs(strict - 0.5) < tol

    rng = random.Random(1234)
    for _ in range(1000):
        n = rng.randint(1, 30)
        gold_vec = [rng.choice(labels) for _ in range(n)]
        pred_vec = [rng.choice(labels) for _ in range(n)]
        accuracy = sum(p == g for p, g in zip(pred_vec, gold_vec)) / n
        assert abs(micro_f1_3way(pred_vec, gold_vec, labels) - accuracy) < tol
    _ok(7, "worked examples and 1000-vector micro-F1/accuracy identity at 1e-9")


def test_criterion_8_extraction_round_trip():
    """1000 randomly generated valid stage outputs rendered in the declared
    marker grammar are recovered exactly by the extractors."""
    rng = random.Random(80)
    words = ("check", "rows", "sum", "units", "scale", "values", "net", "total")

    def noise() -> str:
        return " ".join(rng.choice(words) for _ in range(rng.randint(2, 5)))

    def answer_text() -> str:
        alphabet = string.ascii_letters + string.digits + " .,%-$"
        return ("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 16))).strip() or "x")

    for i in range(1000):
        stage = ("assess", "solve", "verify", "present", "deliberate")[i % 5]
        prefix = (noise() + "\n") if rng.random() < 0.5 else ""
        if stage == "assess":
            complexity = rng.choice(list(Complexity))
            points = tuple(noise() for _ in range(rng.randint(0, 3)))
            raw = prefix + f"COMPLEXITY: {complexity.value}\nNOTES:"
            if points:
                raw += "\n" + "\n".join(f"- {p}" for p in points)
            got_c, got_n = extract_assessment(raw)
            assert (got_c, got_n) == (complexity, AnalyticalNotes(points))
        elif stage == "solve":
            text = answer_text()
            assert extract_solution(prefix + f"ANSWER: {text}", QA).raw == text
        elif stage == "verify":
            verdict = rng.choice(list(Verdict))
            assert extract_verdict(prefix + f"VERDICT: {verdict.value}") is verdict
        elif stage == "present":
            text, why = answer_text(), noise()
            answer, rationale = extract_presentation(
                prefix + f"RATIONALE: {why}\nANSWER: {text}", QA)
            assert (answer.raw, rationale) == (text, why)
        else:
            text = answer_text()
            position = rng.choice(("keep", "change"))
            answer, changed = extract_deliberation(
                prefix + f"POSITION: {position}\nANSWER: {text}", QA)
            assert (answer.raw, changed) == (text, position == "change")
    _ok(8, "1000 generated stage outputs round-trip exactly")


_SMOKE_URL = os.environ.get("PANEL_SMOKE_BASE_URL")
_SMOKE_MODEL = os.environ.get("PANEL_SMOKE_MODEL", "")
_SMOKE_KEY_VAR = os.environ.get("PANEL_SMOKE_KEY_VAR", "PANEL_API_KEY")


@pytest.mark.skipif(not _SMOKE_URL, reason="live smoke disabled; set PANEL_SMOKE_BASE_URL")
def test_criterion_9_live_smoke():
    """Optional: the full pipeline against a real OpenAI-compatible endpoint
    completes the ten-item free-form QA fixture with at most two failed
    tasks."""
    backend = OpenAIChatBackend(BackendConfig(
        base_url=_SMOKE_URL,
        model_name=_SMOKE_MODEL or "gpt-4o-mini",
        api_key_env_var=_SMOKE_KEY_VAR,
        temperature=1.0,
    ))
    config = ablation_presets(seed=0)["full"]
    tasks = list(fixture(DatasetKind.TATQA))
    traces = [run_panel(task, config, backend) for task in tasks]
    assert len(traces) == 10
    for trace in traces:
        json.loads(trace.to_json_line())  # well-formed
    clean = [t for t in traces if t.complete and t.final is not None and not t.failed_agents]
    assert len(clean) >= 8, f"only {len(clean)}/10 tasks ended without StageFailed"
    _ok(9, f"live smoke: {len(clean)}/10 tasks clean")
