from __future__ import annotations

import dataclasses
import itertools
import json
import random
import re
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tablepanel.deliberation as deliberation
from tablepanel.deliberation import (
    PANEL_THREAD_PREFIX,
    AgentState,
    DeliberationTrace,
    OUTCOME_CONSENSUS_ROUND,
    OUTCOME_MAJORITY_VOTE,
    OUTCOME_UNANIMOUS_INITIAL,
    PipelineConfig,
    StageFailed,
    StageName,
    _vote,
    ablation_presets,
    majority_vote,
    peer_review,
    run_panel,
    self_review,
    solve,
)
from tablepanel.extraction import Complexity, Verdict
from tablepanel.gateway import ChatRequest, ScriptedBackend, ScriptEntry, TransportError
from tablepanel.personas import OUTPUT_CONTRACTS, Panel, Persona, Stage, default_panel
from tablepanel.tables import Answer, TaskKind

from conftest import (
    assessment_text,
    make_backend,
    make_run,
    make_task,
    readme_scripted_backend,
    stage_entries,
    stage_entry,
    unanimity_script,
)

QA = TaskKind.qa()
INVESTIGATING = frozenset({StageName.INVESTIGATION})  # a refinement then re-assesses
FACT = TaskKind.fact_verify(("entailed", "refuted", "unknown"))


def agent(name: str = "Albert Einstein") -> AgentState:
    return AgentState(persona=Persona(name, "Explore alternative interpretations"))


def ans(text: str, kind: TaskKind = QA) -> Answer:
    return Answer.from_raw(text, kind)


class TestInvestigate:
    """``solve`` with the investigation stage on: assess, then solve."""

    def test_happy_path_two_calls(self, qa_task):
        backend = make_backend([
            stage_entry(Stage.ASSESS, "COMPLEXITY: intermediate\nNOTES:\n- unit standardization"),
            stage_entry(Stage.SOLVE, "ANSWER: 120"),
        ])
        run = make_run(qa_task, backend, stages=INVESTIGATING)
        a = solve(run, agent())
        assert a.complexity is Complexity.INTERMEDIATE
        assert a.notes == ("unit standardization",)
        assert a.current_solution.raw == "120"
        assert run.recorder.calls == 2

    def test_basic_assessment_with_empty_notes(self, qa_task):
        backend = make_backend([
            stage_entry(Stage.ASSESS, "COMPLEXITY: basic\nNOTES:"),
            stage_entry(Stage.SOLVE, "ANSWER: Refuted"),
        ])
        a = solve(make_run(qa_task, backend, stages=INVESTIGATING), agent())
        assert a.complexity is Complexity.BASIC
        assert a.current_solution.raw == "Refuted"

    def test_garbage_with_no_retry_fails_stage(self, qa_task):
        run = make_run(qa_task, make_backend(["garbage", "garbage"]), format_retry=0,
                       stages=INVESTIGATING)
        with pytest.raises(StageFailed) as err:
            solve(run, agent())
        assert err.value.stage is Stage.ASSESS
        assert run.recorder.calls == 1  # one attempt, no retry

    def test_format_retry_consumes_next_entry(self, qa_task):
        backend = make_backend([
            "garbage",
            stage_entry(Stage.ASSESS, assessment_text()),
            stage_entry(Stage.SOLVE, "ANSWER: 7"),
        ])
        run = make_run(qa_task, backend, format_retry=1, stages=INVESTIGATING)
        a = solve(run, agent())
        assert a.current_solution.raw == "7"
        assert run.recorder.calls == 3

    def test_process_memory_grows_with_exchanges(self, qa_task):
        backend = make_backend([
            stage_entry(Stage.ASSESS, assessment_text()),
            stage_entry(Stage.SOLVE, "ANSWER: 1"),
        ])
        a = solve(make_run(qa_task, backend, stages=INVESTIGATING), agent())
        assert [m.role for m in a.history] == ["user", "assistant", "user", "assistant"]

    def test_solve_prompt_carries_assessment_bindings(self, qa_task):
        seen = []
        spy_entry = stage_entry(Stage.SOLVE, "ANSWER: 9")
        contract = spy_entry.matcher
        spy_entry.matcher = lambda text: contract in text and (seen.append(text) or True)
        backend = make_backend([
            stage_entry(Stage.ASSESS, "COMPLEXITY: complex\nNOTES:\n- watch the units"),
            spy_entry,
        ])
        solve(make_run(qa_task, backend, stages=INVESTIGATING), agent())
        assert "complex" in seen[0]
        assert "- watch the units" in seen[0]


class TestDirectSolve:
    """``solve`` with the investigation stage off: one solve call."""

    def test_single_call(self, qa_task):
        backend = make_backend([stage_entry(Stage.SOLVE, "ANSWER: 42")])
        run = make_run(qa_task, backend)
        a = solve(run, agent())
        assert a.current_solution.raw == "42"
        assert a.complexity is None
        assert run.recorder.calls == 1

    def test_retry_then_success(self, qa_task):
        backend = make_backend(["no marker", stage_entry(Stage.SOLVE, "ANSWER: 7")])
        run = make_run(qa_task, backend, format_retry=1)
        a = solve(run, agent())
        assert a.current_solution.raw == "7"
        assert run.recorder.calls == 2

    def test_unmappable_label_becomes_disagreement_vote(self):
        task = make_task(kind=FACT)
        backend = make_backend([stage_entry(Stage.SOLVE, "ANSWER: probably true")])
        run = make_run(task, backend)
        a = solve(run, agent())
        assert a.current_solution.raw == "probably true"
        assert a.current_solution.normalized == "probably true"  # not a canonical label
        assert run.recorder.calls == 1
        assert run.recorder.records[0].parsed == {
            "answer": {"raw": "probably true", "normalized": "probably true"},
            "unmapped_label": True,
        }


class TestSelfReview:
    def prepared_agent(self, qa_task, backend):
        a = agent()
        backend_pre = make_backend([
            stage_entry(Stage.ASSESS, assessment_text()),
            stage_entry(Stage.SOLVE, "ANSWER: 5"),
        ])
        solve(make_run(qa_task, backend_pre, stages=INVESTIGATING), a)
        return a

    def test_validated_stops_after_one_call(self, qa_task):
        backend = make_backend([stage_entry(Stage.VERIFY, "VERDICT: validated")])
        a = self.prepared_agent(qa_task, backend)
        run = make_run(qa_task, backend, t_max_self=1)
        self_review(run, a)
        assert a.verdict is Verdict.VALIDATED
        assert a.current_solution.raw == "5"
        assert run.recorder.calls == 1

    def test_cap_keeps_latest_solution_despite_uncertain(self, qa_task):
        backend = make_backend([
            stage_entry(Stage.VERIFY, "VERDICT: uncertain"),
            stage_entry(Stage.ASSESS, "COMPLEXITY: basic\nNOTES:"),
            stage_entry(Stage.SOLVE, "ANSWER: 7"),
            stage_entry(Stage.VERIFY, "VERDICT: uncertain"),
        ])
        a = self.prepared_agent(qa_task, backend)
        run = make_run(qa_task, backend, t_max_self=1, stages=INVESTIGATING)
        self_review(run, a)
        assert a.current_solution.raw == "7"
        assert a.verdict is Verdict.UNCERTAIN
        assert run.recorder.calls == 4

    def test_uncertain_then_validated_stops_after_first_refinement(self, qa_task):
        backend = make_backend([
            stage_entry(Stage.VERIFY, "VERDICT: uncertain"),
            stage_entry(Stage.ASSESS, assessment_text()),
            stage_entry(Stage.SOLVE, "ANSWER: 8"),
            stage_entry(Stage.VERIFY, "VERDICT: validated"),
        ])
        a = self.prepared_agent(qa_task, backend)
        run = make_run(qa_task, backend, t_max_self=2, stages=INVESTIGATING)
        self_review(run, a)
        assert a.verdict is Verdict.VALIDATED
        assert a.current_solution.raw == "8"
        assert run.recorder.calls == 4  # verify + (assess+solve) + verify

    def test_failure_during_refinement_keeps_last_good_solution(self, qa_task):
        backend = make_backend([
            stage_entry(Stage.VERIFY, "VERDICT: uncertain"),
            "garbage",  # re-assessment fails
        ])
        a = self.prepared_agent(qa_task, backend)
        self_review(make_run(qa_task, backend, t_max_self=1, format_retry=0,
                             stages=INVESTIGATING), a)
        assert a.current_solution.raw == "5"
        assert a.verdict is Verdict.UNCERTAIN

    @pytest.mark.parametrize("preset", ["vanilla+self", "vanilla+self+peer",
                                        "investigation+self", "full"])
    def test_refinements_solve_the_way_the_first_solve_did(self, qa_task, preset):
        config = dataclasses.replace(ablation_presets(seed=3)[preset], t_max_self=2)
        trace = run_panel(qa_task, config, PolicyBackend(adversarial_policy))
        assert trace.complete
        calls = Counter((r.agent, r.stage) for r in trace.records)
        investigating = StageName.INVESTIGATION in config.stages
        for member in config.panel.members:
            # Every verdict is uncertain: the first solve and two refinements.
            assert calls[member.name, "verify"] == calls[member.name, "solve"] == 3
            assert calls[member.name, "assess"] == (3 if investigating else 0)

    def test_requires_existing_solution(self, qa_task):
        with pytest.raises(ValueError):
            self_review(make_run(qa_task, make_backend([])), agent())


class TestConsensus:
    """``_vote``, which ends every panel: the majority answer, and whether
    it is unanimous."""

    ORDER = ["E", "N", "M", "A", "T"]

    def test_unanimous(self):
        solutions = {n: ans("B-1") for n in "ENMAT"}
        assert _vote(solutions, self.ORDER) == (ans("B-1"), True)

    def test_label_equivalent_casings_agree(self):
        solutions = {
            "E": ans("Refuted", FACT),
            "N": ans("refuted", FACT),
            "M": ans("REFUTED", FACT),
        }
        final, unanimous = _vote(solutions, self.ORDER)
        assert unanimous
        assert final.normalized == "refuted"

    def test_split_is_not_unanimous_and_returns_majority(self):
        solutions = {"E": ans("5"), "N": ans("6"), "M": ans("6")}
        assert _vote(solutions, self.ORDER) == (ans("6"), False)

    def test_agreeing_answers_return_the_first_in_order(self):
        # Equal once normalized, but each raw differs: the earliest in order wins.
        solutions = {"A": ans("The 5"), "N": ans("5"), "E": ans(" 5 ")}
        assert len({a.raw for a in solutions.values()}) == 3
        final, unanimous = _vote(solutions, self.ORDER)
        assert unanimous
        assert final.raw == solutions["E"].raw
        assert _vote(solutions, ())[0].raw == solutions["A"].raw

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            _vote({}, self.ORDER)


class TestMajorityVote:
    ORDER = ["E", "N", "M", "A", "T"]

    def vote(self, answers: dict[str, str]) -> str:
        solutions = {n: ans(t) for n, t in answers.items()}
        return majority_vote(solutions, self.ORDER).normalized

    def test_strict_majority(self):
        assert self.vote({"E": "x", "N": "x", "M": "x", "A": "y", "T": "z"}) == "x"

    def test_tie_breaks_by_earliest_supporter(self):
        # x and y tie 2-2; x's earliest supporter (E) presents before y's (N)
        assert self.vote({"E": "x", "N": "y", "M": "y", "A": "x", "T": "z"}) == "x"
        assert self.vote({"E": "z", "N": "y", "M": "y", "A": "x", "T": "x"}) == "y"

    def test_singleton(self):
        assert self.vote({"E": "x"}) == "x"

    def test_exhaustive_against_counting_oracle(self):
        # brute force over all assignments of 5 agents to 3 answers
        values = ["x", "y", "z"]
        for combo in itertools.product(values, repeat=5):
            assignment = dict(zip(self.ORDER, combo))
            got = self.vote(assignment)
            # oracle: count support; tie -> smallest earliest-supporter index
            best = None
            for value in set(combo):
                count = combo.count(value)
                earliest = combo.index(value)
                key = (-count, earliest)
                if best is None or key < best[0]:
                    best = (key, value)
            assert got == best[1], f"combo {combo}"


def positional_present_entries(answers: list[str]):
    return [
        stage_entry(Stage.PRESENT, f"RATIONALE: my reading\nANSWER: {a}")
        for a in answers
    ]


def positional_deliberate_entries(moves: list[tuple[str, str]]):
    return [
        stage_entry(Stage.DELIBERATE, f"POSITION: {position}\nANSWER: {a}")
        for position, a in moves
    ]


def peer_config(t_max_panel: int = 1, seed: int = 7, stages=None) -> PipelineConfig:
    return PipelineConfig(
        panel=default_panel(),
        stages=frozenset(stages if stages is not None
                         else {StageName.INVESTIGATION, StageName.PEER_REVIEW}),
        t_max_panel=t_max_panel,
        ordering_seed=seed,
    )


def solved_agents(task, answers: list[str]) -> list[AgentState]:
    agents = []
    for persona, text in zip(default_panel().members, answers):
        a = AgentState(persona=persona)
        backend = make_backend([stage_entry(Stage.SOLVE, f"ANSWER: {text}")])
        solve(make_run(task, backend), a)
        agents.append(a)
    return agents


class TestPeerReview:
    def test_unanimous_presentations_short_circuit(self, qa_task):
        agents = solved_agents(qa_task, ["B-1"] * 5)
        backend = make_backend(positional_present_entries(["B-1"] * 5))
        run = make_run(qa_task, backend, peer_config())
        result = peer_review(run, agents)
        assert result.outcome == OUTCOME_UNANIMOUS_INITIAL
        assert result.rounds == []
        assert result.final.normalized == "b-1"
        assert run.recorder.calls == 5

    def test_derived_vote_after_one_round(self, qa_task):
        # presentations X,X,Y,Y,Z; round 1 -> X,X,X,Y,Z; vote returns X
        agents = solved_agents(qa_task, ["seed"] * 5)
        backend = make_backend(
            positional_present_entries(["X", "X", "Y", "Y", "Z"])
            + positional_deliberate_entries(
                [("keep", "X"), ("keep", "X"), ("change", "X"), ("keep", "Y"), ("keep", "Z")])
        )
        result = peer_review(make_run(qa_task, backend, peer_config(t_max_panel=1)), agents)
        assert result.outcome == OUTCOME_MAJORITY_VOTE
        assert len(result.rounds) == 1
        assert result.final.normalized == "x"
        round_values = sorted(a.normalized for a in result.rounds[0].values())
        assert round_values == ["x", "x", "x", "y", "z"]

    def test_consensus_reached_in_round_one(self, qa_task):
        agents = solved_agents(qa_task, ["seed"] * 5)
        backend = make_backend(
            positional_present_entries(["X", "X", "X", "X", "Y"])
            + positional_deliberate_entries([("keep", "X")] * 4 + [("change", "X")])
        )
        result = peer_review(make_run(qa_task, backend, peer_config(t_max_panel=3)), agents)
        assert result.outcome == OUTCOME_CONSENSUS_ROUND
        assert result.consensus_round == 1
        assert len(result.rounds) == 1
        assert result.final.normalized == "x"

    def test_never_converging_panel_runs_all_rounds(self, qa_task):
        for t_max in (1, 2, 3):
            agents = solved_agents(qa_task, ["seed"] * 5)
            distinct = ["V-1", "W-2", "X-3", "Y-4", "Z-5"]
            backend = make_backend(
                positional_present_entries(distinct)
                + positional_deliberate_entries(
                    [("keep", a) for a in distinct] * t_max)
            )
            result = peer_review(make_run(qa_task, backend, peer_config(t_max_panel=t_max)), agents)
            assert result.outcome == OUTCOME_MAJORITY_VOTE
            assert len(result.rounds) == t_max

    def test_presentation_order_deterministic_in_seed(self, qa_task):
        orders = []
        for _ in range(2):
            agents = solved_agents(qa_task, ["X"] * 5)
            backend = make_backend(positional_present_entries(["X"] * 5))
            result = peer_review(make_run(qa_task, backend, peer_config(seed=123)), agents)
            orders.append(result.presentation_order)
        assert orders[0] == orders[1]
        agents = solved_agents(qa_task, ["X"] * 5)
        backend = make_backend(positional_present_entries(["X"] * 5))
        other = peer_review(make_run(qa_task, backend, peer_config(seed=124)), agents)
        assert set(other.presentation_order) == set(orders[0])

    def test_failed_presenter_keeps_frozen_answer_and_counts(self, qa_task):
        agents = solved_agents(qa_task, ["X", "X", "X", "Y", "Y"])
        by_name = {a.name: a for a in agents}
        config = peer_config(t_max_panel=1, seed=7)
        # First presenter emits garbage twice (initial + one retry) and freezes.
        backend = make_backend(
            ["garbage", "garbage"]
            + positional_present_entries(["X", "X", "Y", "Y"])
            + positional_deliberate_entries([("keep", "X")] * 2 + [("keep", "Y")] * 2)
        )
        result = peer_review(make_run(qa_task, backend, config), agents)
        frozen_name = result.presentation_order[0]
        frozen_answer = by_name[frozen_name].current_solution
        # the frozen agent appears in every round with its pre-panel answer
        assert result.rounds[0][frozen_name] == frozen_answer
        assert result.outcome == OUTCOME_MAJORITY_VOTE

    def test_later_presenters_see_earlier_answers(self, qa_task):
        agents = solved_agents(qa_task, ["A", "B", "C", "D", "E"])
        seen = []

        def spy(text):
            seen.append(text)
            return True

        entries = positional_present_entries(["X"] * 5)
        for e in entries:
            base = e.matcher
            e.matcher = (lambda b: lambda t: b in t and spy(t))(base)
        backend = make_backend(entries)
        peer_review(make_run(qa_task, backend, peer_config()), agents)
        assert "(none yet; you present first)" in seen[0]
        assert "X" in seen[1]  # first presenter's answer visible to the second

    def test_the_answer_line_decides_and_changed_is_the_position_claim(self, qa_task):
        # Presented Y,Y,X,X,Z. The first presenter claims a change but repeats Y;
        # the last claims to keep but answers X, which turns a 2-2 tie won by Y into X.
        agents = solved_agents(qa_task, ["seed"] * 5)
        backend = make_backend(
            positional_present_entries(["Y", "Y", "X", "X", "Z"])
            + positional_deliberate_entries(
                [("change", "Y"), ("keep", "Y"), ("keep", "X"), ("keep", "X"), ("keep", "X")])
        )
        run = make_run(qa_task, backend, peer_config(t_max_panel=1))
        result = peer_review(run, agents)
        first, last = result.presentation_order[0], result.presentation_order[-1]
        assert (result.rounds[0][first].normalized, result.rounds[0][last].normalized) == ("y", "x")
        assert result.final.normalized == "x"
        changed = {r.agent: r.parsed["changed"] for r in run.recorder.records
                   if r.stage == Stage.DELIBERATE.value}
        assert (changed[first], changed[last]) == (True, False)


class TestRunPanel:
    def test_vanilla_is_one_direct_call(self, qa_task):
        config = ablation_presets()["vanilla"]
        backend = make_backend([stage_entry(Stage.SOLVE, "ANSWER: 42")])
        trace = run_panel(qa_task, config, backend)
        assert trace.llm_calls == 1
        assert trace.final.raw == "42"
        assert trace.outcome == OUTCOME_UNANIMOUS_INITIAL
        assert trace.rounds == []

    def test_full_pipeline_unanimity_is_twenty_calls(self, qa_task):
        config = ablation_presets(seed=3)["full"]
        backend = make_backend(unanimity_script("B-1"))
        trace = run_panel(qa_task, config, backend)
        assert trace.llm_calls == 20
        assert trace.outcome == OUTCOME_UNANIMOUS_INITIAL
        assert trace.final.raw == "B-1"

    def test_single_agent_full_stack_never_enters_rounds(self, qa_task):
        config = PipelineConfig(
            panel=Panel((default_panel().members[0],)),
            stages=frozenset({StageName.INVESTIGATION, StageName.SELF_REVIEW,
                              StageName.PEER_REVIEW}),
        )
        backend = make_backend(unanimity_script("77", agents=1))
        trace = run_panel(qa_task, config, backend)
        assert trace.outcome == OUTCOME_UNANIMOUS_INITIAL
        assert trace.rounds == []
        assert trace.final.raw == "77"
        assert trace.llm_calls == 4

    def test_failed_investigator_excluded_from_voting(self, qa_task):
        config = PipelineConfig(
            panel=default_panel(),
            stages=frozenset({StageName.PEER_REVIEW}),
            ordering_seed=7,
            format_retry=0,
        )
        backend = make_backend(
            ["junk"]  # Einstein's direct solve fails outright
            + [stage_entry(Stage.SOLVE, "ANSWER: B-1") for _ in range(4)]
            + positional_present_entries(["B-1"] * 4)
        )
        trace = run_panel(qa_task, config, backend)
        assert trace.outcome == OUTCOME_UNANIMOUS_INITIAL
        assert len(trace.presentation_order) == 4
        assert "Albert Einstein" not in trace.presentation_order

    @pytest.mark.parametrize("stage", list(Stage))
    def test_format_failure_names_the_agent_and_its_stage(self, qa_task, monkeypatch, stage):
        created = []

        class RecordedAgent(AgentState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        def policy(persona, at, turn, repeat):
            if (persona, at) == ("Marie Curie", stage):
                return "garbage"
            return adversarial_policy(persona, at, turn, repeat)

        monkeypatch.setattr(deliberation, "AgentState", RecordedAgent)
        trace = run_panel(qa_task, ablation_presets(seed=3)["full"], PolicyBackend(policy))
        assert trace.complete
        assert {a.name: a.failed_stage for a in created if a.failed_stage} == {
            "Marie Curie": stage.value}
        assert trace.failed_agents == ["Marie Curie"]
        # A failed investigation excludes the agent; later failures keep it on the panel.
        assert ("Marie Curie" in trace.presentation_order) is (
            stage not in (Stage.ASSESS, Stage.SOLVE))

    def test_all_agents_failing_marks_incomplete(self, qa_task):
        config = ablation_presets()["vanilla"]
        backend = make_backend(["junk", "junk"])
        trace = run_panel(qa_task, config, backend)
        assert not trace.complete
        assert trace.final is None
        assert "no agent produced a solution" in trace.error

    def test_script_exhaustion_marks_trace_incomplete(self, qa_task):
        config = ablation_presets(seed=3)["full"]
        backend = make_backend(unanimity_script("B-1")[:4])  # run dry mid-way
        trace = run_panel(qa_task, config, backend)
        assert not trace.complete
        assert "ScriptExhausted" in trace.error

    def test_trace_json_round_trip(self, qa_task):
        config = ablation_presets(seed=3)["full"]
        backend = make_backend(unanimity_script("B-1"))
        trace = run_panel(qa_task, config, backend)
        line = trace.to_json_line()
        restored = DeliberationTrace.from_json_dict(json.loads(line))
        assert restored.to_json_line() == line
        assert restored.final == trace.final

    def test_deterministic_traces_across_runs(self, qa_task):
        lines = []
        for _ in range(2):
            config = ablation_presets(seed=11)["full"]
            backend = make_backend(unanimity_script("B-1"))
            lines.append(run_panel(qa_task, config, backend).to_json_line())
        assert lines[0] == lines[1]

    def test_outcome_unanimity_iff_no_rounds_and_equal_presentations(self, qa_task):
        config = peer_config(t_max_panel=2, seed=5)
        agents_answers = ["X", "X", "Y", "Y", "Z"]
        backend = make_backend(
            stage_entries(Stage.ASSESS, assessment_text(), 5)
            + [stage_entry(Stage.SOLVE, f"ANSWER: {a}") for a in agents_answers]
            + positional_present_entries(["X", "X", "Y", "Y", "Z"])
            + positional_deliberate_entries([("keep", "X"), ("keep", "X"), ("keep", "Y"),
                                             ("keep", "Y"), ("keep", "Z")] * 2)
        )
        trace = run_panel(qa_task, config, backend)
        assert trace.outcome == OUTCOME_MAJORITY_VOTE
        assert len(trace.rounds) == 2
        presented_equal = len({a.normalized for a in trace.rounds[0].values()}) == 1
        assert not presented_equal


def readme_backend(newline: str) -> ScriptedBackend:
    """The README script, its replies' line breaks written as ``newline``."""
    script = json.loads(readme_scripted_backend())["script"]
    return ScriptedBackend([ScriptEntry(e["response"].replace("\n", newline), e["match"],
                                        e["repeat"]) for e in script])


class TestReplyLineEnds:
    def test_crlf_readme_script_runs_the_panel_of_its_lf_twin(self, qa_task):
        config = ablation_presets(seed=3)["full"]
        lf, crlf = (run_panel(qa_task, config, readme_backend(newline))
                    for newline in ("\n", "\r\n"))
        assert (crlf.outcome, crlf.final.raw, crlf.llm_calls) == (
            OUTCOME_UNANIMOUS_INITIAL, "42", 20)
        assert (crlf.outcome, crlf.final, crlf.presentation_order, crlf.llm_calls) == (
            lf.outcome, lf.final, lf.presentation_order, lf.llm_calls)
        # No parsed value, the rationales and notes included, keeps a "\r".
        assert [r.parsed for r in crlf.records] == [r.parsed for r in lf.records]


class TestLayerLookups:
    """bench/probes.LayerTracer times the prompt and extraction layers by
    swapping ``deliberation.render_prompt`` and ``deliberation.extract_*``;
    the engine must look each of them up as a module global on every call."""

    EXTRACTORS = {Stage.ASSESS: "extract_assessment", Stage.SOLVE: "extract_solution",
                  Stage.VERIFY: "extract_verdict", Stage.PRESENT: "extract_presentation",
                  Stage.DELIBERATE: "extract_deliberation"}

    def test_swapped_layers_run_once_per_record_and_exchange(self, qa_task, monkeypatch):
        calls = Counter()

        def counting(name):
            original = getattr(deliberation, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return counted

        for name in ("render_prompt", *self.EXTRACTORS.values()):
            monkeypatch.setattr(deliberation, name, counting(name))
        # The first solve reply breaks the contract and is re-asked once.
        backend = make_backend([stage_entry(Stage.SOLVE, "no marker")] + unanimity_script("B-1"))
        trace = run_panel(qa_task, ablation_presets(seed=3)["full"], backend)
        assert trace.outcome == OUTCOME_UNANIMOUS_INITIAL and trace.llm_calls == 21
        records = Counter(r.stage for r in trace.records)
        assert records[Stage.SOLVE.value] == 6 and sum(records.values()) == 21
        for stage, name in self.EXTRACTORS.items():
            assert calls[name] == records[stage.value], name
        # One prompt per exchange: the re-ask repeats the rendered request.
        assert calls["render_prompt"] == 20


class TestPanelWithoutPeerReview:
    """A panel without peer review ends on its solvers' answers: unanimity,
    or else the majority vote with ties going to panel order (Einstein,
    Newton, Curie, Turing, Tesla)."""

    CONFIG = dataclasses.replace(ablation_presets(seed=3)["full"],
                                 stages=frozenset({StageName.INVESTIGATION, StageName.SELF_REVIEW}))
    # The two members first in panel order hold the minority answer.
    SPLIT = {"Albert Einstein": "C-2", "Isaac Newton": "C-2", "Marie Curie": "B-1",
             "Alan Turing": "B-1", "Nikola Tesla": "B-1"}

    def run_both_ways(self, task, policy, call_s: float = 0.0):
        """The fan-out trace and its backend, whose calls each take
        ``call_s``, once the sequential run has given the same trace."""
        backend = PolicyBackend(policy, delay=lambda persona: call_s)
        trace = run_panel(task, self.CONFIG, backend)
        sequential = run_panel(task, self.CONFIG, PolicyBackend(policy, order_independent=False))
        assert trace.to_json_line() == sequential.to_json_line()
        assert trace.llm_calls == len(backend.spans)
        return trace, backend

    @staticmethod
    def answering(answers: dict[str, str], fault=(None, None, None)):
        """Everyone validates and a member solves ``answers[persona]``, but
        ``fault``, a (persona, stage, reply) triple, makes each of that
        persona's calls at that stage return ``reply()``."""
        def policy(persona, stage, turn, repeat):
            if (persona, stage) == fault[:2]:
                return fault[2]()
            if stage is Stage.SOLVE:
                return f"ANSWER: {answers[persona]}"
            return unanimous_policy(persona, stage, turn, repeat)
        return policy

    def test_five_agreeing_members_end_unanimous(self, qa_task):
        trace, backend = self.run_both_ways(qa_task, unanimous_policy,
                                            call_s=TestConcurrentPanel.CALL_S)
        assert (trace.outcome, trace.final.raw, trace.consensus_round) == (
            OUTCOME_UNANIMOUS_INITIAL, "B-1", None)
        assert trace.presentation_order == [] and trace.rounds == []
        assert trace.llm_calls == 15  # assess, solve and verify for each of five
        assert critical_path(backend.spans) == 3

    def test_three_to_two_split_goes_to_the_majority(self, qa_task):
        trace, _ = self.run_both_ways(qa_task, self.answering(self.SPLIT))
        assert (trace.outcome, trace.final.raw) == (OUTCOME_MAJORITY_VOTE, "B-1")
        assert trace.complete and trace.presentation_order == [] and trace.rounds == []

    def test_two_to_two_tie_goes_to_the_earlier_member(self, qa_task):
        answers = {**self.SPLIT, "Marie Curie": "C-2"}  # 2:2 once Einstein drops out
        fault = ("Albert Einstein", Stage.ASSESS, lambda: "no marker")
        trace, _ = self.run_both_ways(qa_task, self.answering(answers, fault))
        assert (trace.outcome, trace.final.raw) == (OUTCOME_MAJORITY_VOTE, "C-2")
        assert trace.failed_agents == ["Albert Einstein"]
        assert trace.llm_calls == 2 + 4 * 3  # Einstein's assess and its re-ask

    def test_member_failing_self_review_still_votes_its_answer(self, qa_task):
        fault = ("Nikola Tesla", Stage.VERIFY, lambda: "no marker")
        trace, _ = self.run_both_ways(qa_task, self.answering(self.SPLIT, fault))
        assert (trace.outcome, trace.final.raw) == (OUTCOME_MAJORITY_VOTE, "B-1")
        assert trace.failed_agents == ["Nikola Tesla"]
        assert [r.ok for r in trace.records if r.agent == "Nikola Tesla"] == [
            True, True, False, False]
        assert trace.llm_calls == 15 + 1

    def test_transport_error_in_a_self_review_keeps_every_record(self, qa_task):
        def unreachable():
            raise TransportError("curie unreachable")

        fault = ("Marie Curie", Stage.VERIFY, unreachable)
        trace, _ = self.run_both_ways(qa_task, self.answering(self.SPLIT, fault))
        assert not trace.complete and trace.final is None and trace.outcome is None
        assert trace.error == "TransportError: curie unreachable"
        agents = list(self.SPLIT)
        assert [(r.agent, r.stage) for r in trace.records] == (
            [(a, stage) for a in agents for stage in ("assess", "solve")]
            + [(a, "verify") for a in agents if a != "Marie Curie"])
        assert trace.llm_calls == 15  # the failed call counts


class TestAbstentionFollowsTheFailedStage:
    """An agent that ran out of format retries in a presentation or a
    deliberation abstains from every later round; one that ran out in its
    self-review deliberates in every round. Every member holds its own name
    as its answer, so the panel never converges and runs both rounds."""

    CONFIG = dataclasses.replace(ablation_presets(seed=3)["full"], t_max_panel=2)

    def run_both_ways(self, task, persona, failing):
        def policy(name, stage, turn, repeat):
            if (name, stage) == (persona, failing):
                return "no marker"
            if stage is Stage.VERIFY:
                return "VERDICT: validated"
            return adversarial_policy(name, stage, turn, repeat)

        trace = run_panel(task, self.CONFIG, PolicyBackend(policy))
        sequential = run_panel(task, self.CONFIG, PolicyBackend(policy, order_independent=False))
        assert trace.to_json_line() == sequential.to_json_line()
        assert (trace.outcome, len(trace.rounds), trace.final.raw) == (
            OUTCOME_MAJORITY_VOTE, 2, "Albert Einstein")  # a five-way tie: the first presenter
        assert trace.failed_agents == [persona]
        return trace, [(r.stage, r.ok) for r in trace.records if r.agent == persona]

    def test_failed_self_review_deliberates_in_both_rounds(self, qa_task):
        trace, own = self.run_both_ways(qa_task, "Nikola Tesla", Stage.VERIFY)
        assert own == [("assess", True), ("solve", True), ("verify", False), ("verify", False),
                       ("present", True), ("deliberate", True), ("deliberate", True)]
        assert trace.llm_calls == 10 + 4 + 2 + 5 + 2 * 5

    def test_failed_presentation_abstains_from_both_rounds(self, qa_task):
        trace, own = self.run_both_ways(qa_task, "Marie Curie", Stage.PRESENT)
        assert own == [("assess", True), ("solve", True), ("verify", True),
                       ("present", False), ("present", False)]
        assert [r["Marie Curie"].raw for r in trace.rounds] == ["Marie Curie"] * 2
        assert trace.llm_calls == 10 + 5 + 4 + 2 + 2 * 4

    def test_failed_first_round_deliberation_abstains_from_the_second(self, qa_task):
        trace, own = self.run_both_ways(qa_task, "Alan Turing", Stage.DELIBERATE)
        assert own[-3:] == [("present", True), ("deliberate", False), ("deliberate", False)]
        assert [r["Alan Turing"].raw for r in trace.rounds] == ["Alan Turing"] * 2
        assert trace.llm_calls == 10 + 5 + 5 + (4 + 2) + 4


class PolicyBackend:
    """An order-independent backend for tests. Its reply is a function of the
    persona, the stage contract, the agent's own history length (its turn)
    and how often that same request arrived before, which only the agent's
    own format re-asks can repeat. It records one (start, end) span, its
    stage and the thread name of every call, and the persona, stage and
    request of every call in the order they arrive."""

    model_name = "policy"
    temperature = 0.0

    def __init__(self, reply, order_independent: bool = True, delay=lambda persona: 0.0):
        self.reply = reply
        self.order_independent = order_independent
        self.delay = delay
        self.spans: list[tuple[float, float]] = []
        self.stages: list[Stage] = []  # the stage of each span
        self.threads: set[str] = set()
        self.requests: list[tuple[str, Stage, ChatRequest]] = []
        self._arrivals: Counter = Counter()
        self._lock = threading.Lock()

    def complete(self, request: ChatRequest) -> str:
        start = time.perf_counter()
        system = request.messages[0].content
        persona = re.search(r"You are (.+?), one scientist", system).group(1)
        stage = next(s for s in Stage if OUTPUT_CONTRACTS[s] in system)
        turn = (len(request.messages) - 2) // 2
        with self._lock:
            repeat = self._arrivals[persona, stage, turn]
            self._arrivals[persona, stage, turn] += 1
            self.threads.add(threading.current_thread().name)
            self.requests.append((persona, stage, request))
        try:
            time.sleep(self.delay(persona))
            return self.reply(persona, stage, turn, repeat)
        finally:
            with self._lock:
                self.spans.append((start, time.perf_counter()))
                self.stages.append(stage)

    def spans_of(self, stage: Stage) -> list[tuple[float, float]]:
        return [span for span, s in zip(self.spans, self.stages) if s is stage]

    def requests_by_persona(self) -> dict[str, list[ChatRequest]]:
        """Each persona's own requests, in the order it sent them."""
        own: dict[str, list[ChatRequest]] = {}
        for persona, _, request in self.requests:
            own.setdefault(persona, []).append(request)
        return own


def unanimous_policy(persona, stage, turn, repeat) -> str:
    return {
        Stage.ASSESS: assessment_text(),
        Stage.SOLVE: "ANSWER: B-1",
        Stage.VERIFY: "VERDICT: validated",
        Stage.PRESENT: "RATIONALE: read from the table\nANSWER: B-1",
        Stage.DELIBERATE: "POSITION: keep\nANSWER: B-1",
    }[stage]


def adversarial_policy(persona, stage, turn, repeat, reask: bool = False) -> str:
    """Every verdict is uncertain and every agent holds its own answer, so
    the panel refines once, then votes after the last round."""
    if stage is Stage.ASSESS:
        return assessment_text()
    if stage is Stage.SOLVE:
        return "no marker" if reask and repeat == 0 else f"ANSWER: {persona}"
    if stage is Stage.VERIFY:
        return "VERDICT: uncertain"
    if stage is Stage.PRESENT:
        return f"RATIONALE: my own reading\nANSWER: {persona}"
    return f"POSITION: keep\nANSWER: {persona}"


PLANNED_CHOICES = 32  # a fault plan's choice for a call is one of range(32)


def planned_reply(stage: Stage, choice: int, alphabet: tuple[str, str, str]) -> str:
    """The reply a fault plan gives: choice 31 is a transport error, 28-30 a
    reply that breaks every stage's contract, and any other a good reply
    whose answer is drawn from ``alphabet``."""
    if choice == PLANNED_CHOICES - 1:
        raise TransportError("planned fault")
    if choice >= PLANNED_CHOICES - 4:
        return "no marker"
    answer = f"ANSWER: {alphabet[choice % 3]}"
    return {
        Stage.ASSESS: assessment_text(("basic", "complex")[choice % 2]),
        Stage.SOLVE: answer,
        Stage.VERIFY: ("VERDICT: validated", "VERDICT: uncertain")[choice % 2],
        Stage.PRESENT: f"RATIONALE: planned\n{answer}",
        Stage.DELIBERATE: f"POSITION: {('keep', 'change')[choice % 2]}\n{answer}",
    }[stage]


class PlannedFault(Exception):
    """A call that a fault plan answers with a transport error."""


def reference_model(config: PipelineConfig, kind: TaskKind, alphabet: tuple[str, str, str],
                    plan: dict) -> dict:
    """What ``run_panel`` must record under a fault plan (see
    ``planned_reply``), worked out from the rules the README states:

    - Investigation assesses (when that stage is on), then solves. An agent
      that runs out of format retries there leaves the panel.
    - Self-review verifies; while the verdict is uncertain and refinements
      remain, the agent investigates again as it did first (assessing only
      when that stage is on) and verifies again. Running out of retries
      keeps the last good answer, and the agent stays on the panel.
    - Peer review: the solvers present in a seed-determined shuffle
      (``random.Random(ordering_seed)``), each once its own self-review is
      done. Unanimity ends the run; otherwise up to ``t_max_panel`` rounds
      run, each followed by a consensus check, and then a majority vote
      whose ties go to the earliest presenter. An agent that runs out of
      retries in a presentation or a deliberation keeps its answer,
      abstains from later rounds and still counts in every check and vote.
    - Without peer review the solvers' answers meet the same end, ties going
      to panel order.
    - A re-ask repeats the request; only a good reply grows the agent's
      history, which is the turn the plan is keyed by.
    - A transport error ends the task once the rest of its phase is done.
      One in investigation lets the other agents' self-reviews run too;
      one in a self-review stops the presentations before its agent.
    """
    members = [p.name for p in config.panel.members]
    turn: Counter = Counter()  # each agent's good replies so far
    arrivals: Counter = Counter()  # how often each (agent, stage, turn) was asked
    records: list[tuple[str, str, bool]] = []
    answer: dict[str, str] = {}
    out_of_retries: set[str] = set()  # agents that ran out of format retries at some stage
    calls = 0

    def ask(name: str, stage: Stage):
        """The choice of the agent's first good reply, or None when the
        re-asks ran out; raises PlannedFault."""
        nonlocal calls
        for _ in range(config.format_retry + 1):
            key = (name, stage, turn[name])
            choice = plan.get((*key, arrivals[key]), (0, 0.0))[0]
            arrivals[key] += 1
            calls += 1
            if choice == PLANNED_CHOICES - 1:
                raise PlannedFault
            good = choice < PLANNED_CHOICES - 4
            records.append((name, stage.value, good))
            if good:
                turn[name] += 1
                return choice
        out_of_retries.add(name)
        return None

    def investigate(name: str) -> bool:
        if StageName.INVESTIGATION in config.stages and ask(name, Stage.ASSESS) is None:
            return False
        choice = ask(name, Stage.SOLVE)
        if choice is not None:
            answer[name] = alphabet[choice % 3]
        return choice is not None

    def self_review(name: str) -> None:
        for refinement in range(config.t_max_self + 1):
            if refinement and not investigate(name):
                return
            verdict = ask(name, Stage.VERIFY)
            if verdict is None or verdict % 2 == 0:  # out of retries, or validated
                return

    def phase(names, step) -> list[str]:
        """Run every agent's step; the agents whose step hit a fault."""
        faulty = []
        for name in names:
            try:
                step(name)
            except PlannedFault:
                faulty.append(name)
        return faulty

    def ended(**end) -> dict:
        return {"records": records, "llm_calls": calls,
                "failed_agents": [n for n in members if n in out_of_retries],
                "complete": "error" not in end, "error": None, "outcome": None,
                "consensus_round": None, "final": None, "presentation_order": [], "rounds": [],
                **end}

    def vote(order: list[str], **end) -> dict:
        """Unanimity, or else the most supported answer, ties going to the
        supporter earliest in ``order``."""
        normalized = {n: Answer.from_raw(answer[n], kind).normalized for n in order}
        support = Counter(normalized.values())
        if len(support) == 1:
            return ended(outcome=OUTCOME_UNANIMOUS_INITIAL, final=answer[order[0]], **end)
        winner = next(n for n in order if support[normalized[n]] == max(support.values()))
        return ended(outcome=OUTCOME_MAJORITY_VOTE, final=answer[winner], **end)

    fault = "TransportError: planned fault"
    faulty_investigations = phase(members, investigate)
    solvers = [n for n in members if n in answer]
    faulty_reviews = phase(solvers, self_review) if StageName.SELF_REVIEW in config.stages else []
    if faulty_investigations:
        return ended(error=fault)
    if not solvers:
        return ended(error="no agent produced a solution")
    if StageName.PEER_REVIEW not in config.stages:
        return ended(error=fault) if faulty_reviews else vote(solvers)

    order = list(solvers)
    random.Random(config.ordering_seed).shuffle(order)
    abstaining = set()

    def speak(name: str, stage: Stage) -> None:
        choice = ask(name, stage)
        if choice is None:
            abstaining.add(name)
        else:
            answer[name] = alphabet[choice % 3]

    try:
        for name in order:
            if name in faulty_reviews:
                break
            speak(name, Stage.PRESENT)
    except PlannedFault:
        return ended(error=fault)
    if faulty_reviews:
        return ended(error=fault)
    result = vote(order, presentation_order=order)
    if result["outcome"] == OUTCOME_UNANIMOUS_INITIAL:
        return result

    rounds = []
    for round_no in range(1, config.t_max_panel + 1):
        active = [n for n in order if n not in abstaining]
        if phase(active, lambda name: speak(name, Stage.DELIBERATE)):
            return ended(error=fault)
        rounds.append({n: answer[n] for n in order})
        result = vote(order, presentation_order=order, rounds=rounds)
        if result["outcome"] == OUTCOME_UNANIMOUS_INITIAL:
            return {**result, "outcome": OUTCOME_CONSENSUS_ROUND, "consensus_round": round_no}
    return result


def observed(trace: DeliberationTrace) -> dict:
    """The fields of a trace that ``reference_model`` predicts."""
    return {"records": [(r.agent, r.stage, r.ok) for r in trace.records],
            "llm_calls": trace.llm_calls, "failed_agents": trace.failed_agents,
            "complete": trace.complete, "error": trace.error, "outcome": trace.outcome,
            "consensus_round": trace.consensus_round,
            "final": trace.final.raw if trace.final else None,
            "presentation_order": trace.presentation_order,
            "rounds": [{n: a.raw for n, a in r.items()} for r in trace.rounds]}


def critical_path(spans: list[tuple[float, float]]) -> int:
    """Longest chain of calls in which each starts after the previous ended."""
    ordered = sorted(spans)
    longest = []
    for start, end in ordered:
        before = [n for (s, e), n in zip(ordered, longest) if e <= start]
        longest.append(1 + max(before, default=0))
    return max(longest, default=0)


def in_flight_max(spans: list[tuple[float, float]]) -> int:
    events = sorted([(s, 1) for s, _ in spans] + [(e, -1) for _, e in spans])
    return max(itertools.accumulate(step for _, step in events), default=0)


def panel_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith(PANEL_THREAD_PREFIX)]


class TestConcurrentPanel:
    # Long enough that every call of a concurrent phase starts before the
    # first one ends, so spans show the dependency chain.
    CALL_S = 0.05

    def test_traces_byte_identical_to_sequential_for_every_preset(self, qa_task):
        def policy(*args):
            return adversarial_policy(*args, reask=True)

        def delay(persona):
            return (1 + len(persona) % 4) * 0.001  # agents finish out of panel order

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the panel threads finely
        try:
            for name, config in ablation_presets(seed=5).items():
                config = dataclasses.replace(config, t_max_panel=3)
                lines = {}
                for independent in (False, True):
                    backend = PolicyBackend(policy, order_independent=independent, delay=delay)
                    trace = run_panel(qa_task, config, backend)
                    lines[independent] = trace.to_json_line()
                    assert trace.llm_calls == len(backend.spans), name
                    if len(config.panel) > 1:
                        assert trace.outcome == OUTCOME_MAJORITY_VOTE, name
                        assert len(trace.rounds) == 3, name
                        assert (in_flight_max(backend.spans) > 1) is independent, name
                assert any(not r.ok for r in trace.records), name
                assert any(r.parsed == {"verdict": "uncertain"} for r in trace.records) == (
                    StageName.SELF_REVIEW in config.stages), name
                assert lines[True] == lines[False], name
        finally:
            sys.setswitchinterval(switch_interval)

    def test_full_unanimous_critical_path_is_eight_calls(self, qa_task):
        backend = PolicyBackend(unanimous_policy, delay=lambda persona: self.CALL_S)
        trace = run_panel(qa_task, ablation_presets(seed=3)["full"], backend)
        assert trace.outcome == OUTCOME_UNANIMOUS_INITIAL
        assert trace.llm_calls == len(backend.spans) == 20
        # assess, solve, verify, then five presentations one after another
        assert critical_path(backend.spans) == 8
        assert in_flight_max(backend.spans) <= 5

    def test_adversarial_critical_path_is_fourteen_calls(self, qa_task):
        config = dataclasses.replace(ablation_presets(seed=3)["full"], t_max_panel=3)
        backend = PolicyBackend(adversarial_policy, delay=lambda persona: self.CALL_S)
        trace = run_panel(qa_task, config, backend)
        assert trace.outcome == OUTCOME_MAJORITY_VOTE and len(trace.rounds) == 3
        assert trace.llm_calls == len(backend.spans) == 50
        # 2 investigation + 4 self-review + 5 presentations + 3 rounds
        assert critical_path(backend.spans) == 14

    # With seed 3 the panel presents as Einstein, Curie, Turing, Tesla, Newton.
    LATE = ("Nikola Tesla", "Isaac Newton")

    def test_presenters_wait_only_for_their_own_self_review(self, qa_task):
        def policy(persona, stage, turn, repeat):
            if stage is Stage.VERIFY and persona in self.LATE and turn == 2:
                return "VERDICT: uncertain"  # re-investigate, then validate
            return unanimous_policy(persona, stage, turn, repeat)

        backend = PolicyBackend(policy, delay=lambda persona: self.CALL_S)
        trace = run_panel(qa_task, ablation_presets(seed=3)["full"], backend)
        assert trace.presentation_order[-2:] == list(self.LATE)
        assert trace.outcome == OUTCOME_UNANIMOUS_INITIAL
        assert trace.llm_calls == len(backend.spans) == 20 + 2 * 3
        # The doubters' four review calls overlap the first three
        # presentations: assess, solve, verify, three presentations, then
        # the doubters' two, against 2 + 4 + 5 behind a self-review barrier.
        assert critical_path(backend.spans) == 8 < 2 + 4 + 5
        last_verify_end = max(end for _, end in backend.spans_of(Stage.VERIFY))
        assert min(start for start, _ in backend.spans_of(Stage.PRESENT)) < last_verify_end
        sequential = run_panel(qa_task, ablation_presets(seed=3)["full"],
                               PolicyBackend(policy, order_independent=False))
        assert trace.to_json_line() == sequential.to_json_line()

    def test_self_reviews_start_when_their_own_investigation_ends(self, qa_task):
        def policy(persona, stage, turn, repeat):
            if stage is Stage.SOLVE and persona == "Marie Curie" and repeat == 0:
                return "no marker"  # re-asked: Curie's investigation takes three calls
            return unanimous_policy(persona, stage, turn, repeat)

        config = ablation_presets(seed=3)["full"]
        backend = PolicyBackend(policy, delay=lambda persona: self.CALL_S)
        trace = run_panel(qa_task, config, backend)
        assert trace.presentation_order[:2] == ["Albert Einstein", "Marie Curie"]
        assert trace.outcome == OUTCOME_UNANIMOUS_INITIAL
        assert trace.llm_calls == len(backend.spans) == 20 + 1
        # Einstein presents while Curie verifies: assess, solve, verify, then
        # five presentations, against Curie's 3 + 1 and five presentations
        # behind an investigation barrier.
        assert critical_path(backend.spans) == 8 < 3 + 1 + 5
        curie_resolve_end = max(end for _, end in backend.spans_of(Stage.SOLVE))
        assert min(start for start, _ in backend.spans_of(Stage.VERIFY)) < curie_resolve_end
        sequential = run_panel(qa_task, config, PolicyBackend(policy, order_independent=False))
        assert trace.to_json_line() == sequential.to_json_line()

    @staticmethod
    def failing_review_policy(persona, stage, turn, repeat):
        """Newton's verification fails late, Tesla's at once: Newton comes
        first in agent order, Tesla first in presentation order."""
        if stage is Stage.VERIFY and persona == "Isaac Newton":
            time.sleep(0.03)
            raise TransportError("newton unreachable")
        if stage is Stage.VERIFY and persona == "Nikola Tesla":
            raise TransportError("tesla unreachable")
        return unanimous_policy(persona, stage, turn, repeat)

    def test_failed_self_review_stops_the_chain_before_its_presenter(self, qa_task):
        config = ablation_presets(seed=3)["full"]
        agents = [p.name for p in config.panel.members]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            lines = set()
            for _ in range(20):
                backend = PolicyBackend(self.failing_review_policy,
                                        delay=lambda persona: (1 + len(persona) % 3) * 0.002)
                trace = run_panel(qa_task, config, backend)
                lines.add(trace.to_json_line())
                assert trace.llm_calls == len(backend.spans) == 10 + 5 + 3
        finally:
            sys.setswitchinterval(switch_interval)
        sequential = run_panel(qa_task, config, PolicyBackend(self.failing_review_policy,
                                                              order_independent=False))
        assert lines == {sequential.to_json_line()}
        assert not trace.complete and trace.final is None
        assert trace.error == "TransportError: newton unreachable"
        reviewed = [a for a in agents if a not in self.LATE]
        assert [(r.agent, r.stage) for r in trace.records[10:]] == (
            [(a, "verify") for a in reviewed]
            + [(a, "present") for a in ("Albert Einstein", "Marie Curie", "Alan Turing")])
        assert panel_threads() == []

    def test_a_self_review_error_wins_over_a_presentation_error(self, qa_task):
        def policy(persona, stage, turn, repeat):
            if stage is Stage.PRESENT and persona == "Marie Curie":
                raise TransportError("curie present failed")
            if stage is Stage.VERIFY and persona == "Nikola Tesla":
                time.sleep(0.03)  # fails after Curie's presentation, Curie presenting second
                raise TransportError("tesla review failed")
            return unanimous_policy(persona, stage, turn, repeat)

        config = ablation_presets(seed=3)["full"]
        agents = [p.name for p in config.panel.members]
        lines = set()
        for independent in (False, True):
            trace = run_panel(qa_task, config, PolicyBackend(policy, order_independent=independent))
            lines.add(trace.to_json_line())
            assert not trace.complete and trace.final is None
            assert trace.error == "TransportError: tesla review failed"
            assert trace.llm_calls == 10 + 5 + 2
            # Every review record first, then Einstein's presentation.
            assert [(r.agent, r.stage) for r in trace.records[10:]] == (
                [(a, "verify") for a in agents if a != "Nikola Tesla"]
                + [("Albert Einstein", "present")])
        assert len(lines) == 1

    def test_sequential_run_sends_each_agents_chain_before_the_next_agents(self, qa_task):
        config = dataclasses.replace(ablation_presets(seed=3)["full"],
                                     panel=Panel(default_panel().members[:3]))
        backend = PolicyBackend(unanimous_policy, order_independent=False)
        trace = run_panel(qa_task, config, backend)
        assert trace.outcome == OUTCOME_UNANIMOUS_INITIAL
        agents = [p.name for p in config.panel.members]
        # Each agent investigates and then reviews its own answer before the
        # next agent's first call, as each agent's job chain runs on a pool.
        assert [(persona, stage) for persona, stage, _ in backend.requests] == (
            [(a, stage) for a in agents for stage in (Stage.ASSESS, Stage.SOLVE, Stage.VERIFY)]
            + [(a, Stage.PRESENT) for a in trace.presentation_order])
        fanned_out = run_panel(qa_task, config, PolicyBackend(unanimous_policy))
        assert fanned_out.to_json_line() == trace.to_json_line()

    def test_an_unexpected_error_in_a_self_review_is_raised_after_the_same_calls(self, qa_task):
        def policy(persona, stage, turn, repeat):
            if stage is Stage.VERIFY and persona == "Isaac Newton":
                raise RuntimeError("newton's verify broke")
            return unanimous_policy(persona, stage, turn, repeat)

        config = ablation_presets(seed=3)["full"]
        for independent in (False, True):
            backend = PolicyBackend(policy, order_independent=independent)
            with pytest.raises(RuntimeError, match="newton's verify broke"):
                run_panel(qa_task, config, backend)
            # Every investigation and self-review, then the presentations of
            # everyone before Newton, who presents last.
            assert len(backend.spans) == 10 + 5 + 4, independent
            assert panel_threads() == []

    def test_unlimited_script_fans_out_with_the_sequential_trace(self, qa_task):
        calls = []

        def on(stage):
            def match(text: str) -> bool:
                if OUTPUT_CONTRACTS[stage] not in text:
                    return False
                calls.append((stage, threading.current_thread().name))
                return True
            return match

        backend = ScriptedBackend([ScriptEntry(unanimous_policy(None, s, 0, 0), on(s), repeat=None)
                                   for s in Stage])
        config = ablation_presets(seed=3)["full"]
        trace = run_panel(qa_task, config, backend)
        assert trace.outcome == OUTCOME_UNANIMOUS_INITIAL and len(calls) == trace.llm_calls == 20
        # Every call ran on a panel thread, the presentations' included.
        assert {stage for stage, _ in calls} == set(Stage) - {Stage.DELIBERATE}
        assert all(thread.startswith(PANEL_THREAD_PREFIX) for _, thread in calls)
        sequential = run_panel(qa_task, config, PolicyBackend(unanimous_policy, order_independent=False))
        assert trace.to_json_line() == sequential.to_json_line()

    def test_transport_error_lets_the_phase_finish_and_keeps_its_records(self, qa_task):
        def policy(persona, stage, turn, repeat):
            if stage is Stage.ASSESS and persona == "Isaac Newton":
                time.sleep(0.03)  # fails after Turing, yet comes first in agent order
                raise TransportError("newton unreachable")
            if stage is Stage.ASSESS and persona == "Alan Turing":
                raise TransportError("turing unreachable")
            return unanimous_policy(persona, stage, turn, repeat)

        config = ablation_presets(seed=3)["full"]
        backend = PolicyBackend(policy)
        trace = run_panel(qa_task, config, backend)
        sequential = run_panel(qa_task, config, PolicyBackend(policy, order_independent=False))
        assert trace.to_json_line() == sequential.to_json_line()
        assert not trace.complete and trace.final is None
        assert trace.error == "TransportError: newton unreachable"
        # Einstein, Curie and Tesla finish their investigation, in agent order,
        # and then their self-review.
        solvers = ("Albert Einstein", "Marie Curie", "Nikola Tesla")
        assert [(r.agent, r.stage) for r in trace.records] == [
            ("Albert Einstein", "assess"), ("Albert Einstein", "solve"),
            ("Marie Curie", "assess"), ("Marie Curie", "solve"),
            ("Nikola Tesla", "assess"), ("Nikola Tesla", "solve"),
        ] + [(a, "verify") for a in solvers]
        assert [r["seq"] for r in trace.to_json_dict()["records"]] == list(range(9))
        assert trace.llm_calls == len(backend.spans) == 5 + 3 + 3
        assert panel_threads() == []

    # A fact-verification alphabet holds an unmapped label, which still votes.
    ALPHABETS = {QA: ("B-1", "C-2", "D-3"), FACT: ("entailed", "refuted", "maybe")}

    @settings(max_examples=300, deadline=None)
    @given(preset=st.sampled_from(list(ablation_presets())), peer_review=st.booleans(),
           seed=st.integers(0, 3), t_max_self=st.integers(1, 3), t_max_panel=st.integers(1, 3),
           format_retry=st.integers(0, 2), kind=st.sampled_from([QA, FACT]), faults=st.booleans(),
           data=st.data())
    def test_fan_out_trace_equals_the_sequential_one_under_any_fault_plan(
            self, preset, peer_review, seed, t_max_self, t_max_panel, format_retry, kind, faults,
            data):
        # Each preset also runs with peer review dropped: a panel that votes.
        config = ablation_presets(seed)[preset]
        stages = config.stages if peer_review else config.stages - {StageName.PEER_REVIEW}
        config = dataclasses.replace(config, stages=stages, t_max_self=t_max_self,
                                     t_max_panel=t_max_panel, format_retry=format_retry)
        alphabet = self.ALPHABETS[kind]
        plan = {}  # (persona, stage, turn, repeat) -> its reply choice and its delay in s
        # Half the plans hold no transport error, so that more runs reach the panel's end.
        choices = st.integers(0, PLANNED_CHOICES - (1 if faults else 2))

        def drawing(persona, stage, turn, repeat):
            # The sequential run draws each call's reply and delay when it first asks.
            key = (persona, stage, turn, repeat)
            if key not in plan:
                plan[key] = (data.draw(choices, label=f"reply to {key}"),
                             data.draw(st.integers(0, 20), label=f"delay of {key}") * 1e-4)
            return planned_reply(stage, plan[key][0], alphabet)

        def planned(persona, stage, turn, repeat):
            choice, delay = plan.get((persona, stage, turn, repeat), (0, 0.0))
            time.sleep(delay)
            return planned_reply(stage, choice, alphabet)

        task = make_task(kind)
        sequential_backend = PolicyBackend(drawing, order_independent=False)
        sequential = run_panel(task, config, sequential_backend)
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            backend = PolicyBackend(planned)
            fanned_out = run_panel(task, config, backend)
        finally:
            sys.setswitchinterval(switch_interval)
        assert fanned_out.to_json_line() == sequential.to_json_line()
        assert fanned_out.llm_calls == len(backend.spans)
        assert backend.requests_by_persona() == sequential_backend.requests_by_persona()
        # The sequential run sends one agent's investigation and self-review
        # calls after another's, in panel order, as one job chain each.
        solving = [persona for persona, stage, _ in sequential_backend.requests
                   if stage not in (Stage.PRESENT, Stage.DELIBERATE)]
        assert [persona for persona, _ in itertools.groupby(solving)] == [
            p.name for p in config.panel.members]
        expected = reference_model(config, kind, alphabet, plan)
        assert observed(sequential) == expected
        assert observed(fanned_out) == expected


class TestAblationPresets:
    def test_ten_presets_in_declared_order(self):
        presets = ablation_presets()
        assert list(presets) == [
            "vanilla", "vanilla+self", "vanilla+peer", "vanilla+self+peer",
            "investigation", "investigation+self", "investigation+peer",
            "full", "full-random-role", "full-alt-role",
        ]

    def test_stage_activations(self):
        presets = ablation_presets()
        inv, slf, peer = StageName.INVESTIGATION, StageName.SELF_REVIEW, StageName.PEER_REVIEW
        assert presets["vanilla"].stages == frozenset()
        assert presets["vanilla+self"].stages == {slf}
        assert presets["vanilla+peer"].stages == {peer}
        assert presets["vanilla+self+peer"].stages == {slf, peer}
        assert presets["investigation"].stages == {inv}
        assert presets["investigation+self"].stages == {inv, slf}
        assert presets["investigation+peer"].stages == {inv, peer}
        for name in ("full", "full-random-role", "full-alt-role"):
            assert presets[name].stages == {inv, slf, peer}

    def test_panel_sizes(self):
        presets = ablation_presets()
        assert len(presets["vanilla"].panel) == 1
        assert len(presets["investigation+self"].panel) == 1
        assert len(presets["vanilla+peer"].panel) == 5
        assert len(presets["full"].panel) == 5
        assert 2 <= len(presets["full-random-role"].panel) <= 5
        assert {m.name for m in presets["full-alt-role"].panel.members} == {
            "Doctor", "Artist", "Researcher", "Social Influencer", "Entrepreneur"}

    def test_default_iteration_caps_are_one(self):
        for config in ablation_presets().values():
            assert config.t_max_self == 1
            assert config.t_max_panel == 1

    def test_digest_stable_and_sensitive(self):
        a = ablation_presets(seed=1)["full"]
        b = ablation_presets(seed=1)["full"]
        c = ablation_presets(seed=2)["full"]
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
