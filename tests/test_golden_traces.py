"""Golden-trace digests: every preset, on the first task of every bundled
fixture, at ``t_max_panel`` 1 and 3 with ``t_max_self=2``, under two scripts.

The full script forces format re-asks, a failed presenter, ``uncertain``
verdicts, unmapped labels and majority votes; the dry script lacks the
entries of the panel's last member for the last stage it reaches, so the
run stops mid-panel with an incomplete trace. Each run pins the sha256 of its
``to_json_line()`` and of the messages of every request it sent, in order.

A refactor of the engine must leave these digests alone. After a deliberate
change to traces or prompts, regenerate the file with

    PYTHONPATH=src python tests/test_golden_traces.py > tests/golden_traces.json
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from tablepanel.datasets import DatasetKind, fixture
from tablepanel.deliberation import OUTCOME_MAJORITY_VOTE, StageName, ablation_presets, run_panel
from tablepanel.gateway import ChatRequest, ScriptedBackend, ScriptEntry
from tablepanel.personas import OUTPUT_CONTRACTS, Stage

GOLDEN = Path(__file__).with_name("golden_traces.json")
T_MAX_PANEL = (1, 3)
SCRIPTS = ("full", "dry")
SPARE = 8  # enough valid replies per (agent, stage) for every run


class RecordingBackend(ScriptedBackend):
    def __init__(self, script):
        super().__init__(script)
        self.sent: list[list[list[str]]] = []

    def complete(self, request: ChatRequest) -> str:
        self.sent.append([[m.role, m.content] for m in request.messages])
        return super().complete(request)


def _answers(kind, n: int) -> list[str]:
    """Distinct answers per agent; on labelled kinds they repeat, and the
    third agent gives one that maps to no label."""
    if not kind.label_set:
        return [f"{17 + 11 * i}" for i in range(n)]
    labels = kind.label_set
    return ["probably so" if i == 2 else labels[i % len(labels)].title() for i in range(n)]


def _replies(i: int, answer: str, first: str) -> dict[Stage, list[str]]:
    """One agent's replies per stage, consumed in order."""
    notes = "COMPLEXITY: intermediate\nNOTES:\n- check the units\n- read the caption"
    uncertain, validated = "VERDICT: uncertain", "VERDICT: validated"
    verify = {0: [uncertain, uncertain, validated], 1: [uncertain, validated], 4: [validated]}
    present = f"RATIONALE: reading of agent {i}\nANSWER: {answer}"
    keep = f"POSITION: keep\nANSWER: {answer}"
    # The second agent joins the first from round 2 on.
    deliberate = [keep, f"POSITION: change\nANSWER: {first}"] if i == 1 else [keep]
    return {
        Stage.ASSESS: (["no marker"] if i == 0 else []) + [notes],
        Stage.SOLVE: (["ANSWER:"] if i == 0 else []) + [f"ANSWER: {answer}"],
        Stage.VERIFY: verify.get(i, [uncertain]),
        Stage.PRESENT: (["garbage", "garbage"] if i == 2 else []) + [present],
        Stage.DELIBERATE: (["POSITION: keep"] if i == 3 else []) + deliberate,
    }


def _last_stage(config) -> Stage:
    if StageName.PEER_REVIEW in config.stages:
        return Stage.DELIBERATE
    if StageName.SELF_REVIEW in config.stages:
        return Stage.VERIFY
    return Stage.SOLVE


def build_script(config, task, dry: bool) -> list[ScriptEntry]:
    members = config.panel.members
    answers = _answers(task.kind, len(members))
    entries = []
    for i, persona in enumerate(members):
        for stage, replies in _replies(i, answers[i], answers[0]).items():
            if dry and i == len(members) - 1 and stage is _last_stage(config):
                continue
            who = f"You are {persona.name}, one scientist"
            contract = OUTPUT_CONTRACTS[stage]

            def matcher(text: str, who=who, contract=contract) -> bool:
                return who in text and contract in text

            for reply in replies + replies[-1:] * SPARE:
                entries.append(ScriptEntry(response=reply, matcher=matcher))
    return entries


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_case(preset: str, kind: DatasetKind, t_max_panel: int, script: str):
    config = dataclasses.replace(ablation_presets(seed=5)[preset],
                                 t_max_self=2, t_max_panel=t_max_panel)
    task = next(fixture(kind, limit=1))
    backend = RecordingBackend(build_script(config, task, dry=script == "dry"))
    trace = run_panel(task, config, backend)
    return trace, backend


def case_id(preset: str, kind: DatasetKind, t_max_panel: int, script: str) -> str:
    return f"{preset}/{kind.value}/t{t_max_panel}/{script}"


CASES = [(p, k, t, s) for p in ablation_presets() for k in DatasetKind
         for t in T_MAX_PANEL for s in SCRIPTS]


def digests(trace, backend) -> dict[str, str]:
    return {
        "trace": _sha(trace.to_json_line()),
        "messages": _sha(json.dumps(backend.sent, ensure_ascii=False)),
    }


def compute_all() -> dict[str, dict[str, str]]:
    return {case_id(*case): digests(*run_case(*case)) for case in CASES}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert len(CASES) == 160
    assert sorted(golden) == sorted(case_id(*case) for case in CASES)


@pytest.mark.parametrize("preset", list(ablation_presets()))
def test_traces_and_requests_match_golden_digests(golden, preset):
    outcomes, reasks, uncertain, incomplete = set(), 0, 0, 0
    for case in CASES:
        if case[0] != preset:
            continue
        trace, backend = run_case(*case)
        assert digests(trace, backend) == golden[case_id(*case)], case_id(*case)
        assert trace.llm_calls == len(backend.sent), case_id(*case)
        if case[3] == "dry":
            assert not trace.complete and "ScriptExhausted" in trace.error, case_id(*case)
            incomplete += 1
            continue
        assert trace.complete, case_id(*case)
        outcomes.add(trace.outcome)
        reasks += sum(not r.ok for r in trace.records)
        uncertain += sum(r.parsed == {"verdict": "uncertain"} for r in trace.records)
    config = ablation_presets(seed=5)[preset]
    assert reasks > 0 and incomplete == 8
    assert (uncertain > 0) == (StageName.SELF_REVIEW in config.stages)
    assert (OUTCOME_MAJORITY_VOTE in outcomes) == (len(config.panel) > 1)


if __name__ == "__main__":
    json.dump(compute_all(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
