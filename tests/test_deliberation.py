from __future__ import annotations

import dataclasses
import itertools
import json
import re
import sys
import threading
import time
from collections import Counter

import pytest

import tablepanel.deliberation as deliberation
from tablepanel.deliberation import (
    PANEL_THREAD_PREFIX,
    PANEL_WIDTH_MAX,
    AgentState,
    DeliberationTrace,
    InvalidConfig,
    OUTCOME_CONSENSUS_ROUND,
    OUTCOME_MAJORITY_VOTE,
    OUTCOME_UNANIMOUS_INITIAL,
    PipelineConfig,
    StageFailed,
    StageName,
    ablation_presets,
    consensus_check,
    direct_solve,
    investigate,
    majority_vote,
    peer_review,
    run_panel,
    self_review,
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
    stage_entries,
    stage_entry,
    unanimity_script,
)

QA = TaskKind.qa()
FACT = TaskKind.fact_verify(("entailed", "refuted", "unknown"))


def agent(name: str = "Albert Einstein") -> AgentState:
    return AgentState(persona=Persona(name, "Explore alternative interpretations"))


def ans(text: str, kind: TaskKind = QA) -> Answer:
    return Answer.from_raw(text, kind)


class TestInvestigate:
    def test_happy_path_two_calls(self, qa_task):
        backend = make_backend([
            stage_entry(Stage.ASSESS, "COMPLEXITY: intermediate\nNOTES:\n- unit standardization"),
            stage_entry(Stage.SOLVE, "ANSWER: 120"),
        ])
        run = make_run(qa_task, backend)
        a = investigate(run, agent())
        assert a.complexity is Complexity.INTERMEDIATE
        assert a.notes.points == ("unit standardization",)
        assert a.current_solution.raw == "120"
        assert run.recorder.calls == 2

    def test_basic_assessment_with_empty_notes(self, qa_task):
        backend = make_backend([
            stage_entry(Stage.ASSESS, "COMPLEXITY: basic\nNOTES:"),
            stage_entry(Stage.SOLVE, "ANSWER: Refuted"),
        ])
        a = investigate(make_run(qa_task, backend), agent())
        assert a.complexity is Complexity.BASIC
        assert a.current_solution.raw == "Refuted"

    def test_garbage_with_no_retry_fails_stage(self, qa_task):
        run = make_run(qa_task, make_backend(["garbage", "garbage"]), format_retry=0)
        with pytest.raises(StageFailed) as err:
            investigate(run, agent())
        assert err.value.stage is Stage.ASSESS
        assert run.recorder.calls == 1  # one attempt, no retry

    def test_format_retry_consumes_next_entry(self, qa_task):
        backend = make_backend([
            "garbage",
            stage_entry(Stage.ASSESS, assessment_text()),
            stage_entry(Stage.SOLVE, "ANSWER: 7"),
        ])
        run = make_run(qa_task, backend, format_retry=1)
        a = investigate(run, agent())
        assert a.current_solution.raw == "7"
        assert run.recorder.calls == 3

    def test_process_memory_grows_with_exchanges(self, qa_task):
        backend = make_backend([
            stage_entry(Stage.ASSESS, assessment_text()),
            stage_entry(Stage.SOLVE, "ANSWER: 1"),
        ])
        a = investigate(make_run(qa_task, backend), agent())
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
        investigate(make_run(qa_task, backend), agent())
        assert "complex" in seen[0]
        assert "- watch the units" in seen[0]


class TestDirectSolve:
    def test_single_call(self, qa_task):
        backend = make_backend([stage_entry(Stage.SOLVE, "ANSWER: 42")])
        run = make_run(qa_task, backend)
        a = direct_solve(run, agent())
        assert a.current_solution.raw == "42"
        assert a.complexity is None
        assert run.recorder.calls == 1

    def test_retry_then_success(self, qa_task):
        backend = make_backend(["no marker", stage_entry(Stage.SOLVE, "ANSWER: 7")])
        run = make_run(qa_task, backend, format_retry=1)
        a = direct_solve(run, agent())
        assert a.current_solution.raw == "7"
        assert run.recorder.calls == 2

    def test_unmappable_label_becomes_disagreement_vote(self):
        task = make_task(kind=FACT)
        backend = make_backend([stage_entry(Stage.SOLVE, "ANSWER: probably true")])
        run = make_run(task, backend)
        a = direct_solve(run, agent())
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
        investigate(make_run(qa_task, backend_pre), a)
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
        run = make_run(qa_task, backend, t_max_self=1)
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
        run = make_run(qa_task, backend, t_max_self=2)
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
        self_review(make_run(qa_task, backend, t_max_self=1, format_retry=0), a)
        assert a.current_solution.raw == "5"
        assert a.verdict is Verdict.UNCERTAIN

    def test_requires_existing_solution(self, qa_task):
        with pytest.raises(ValueError):
            self_review(make_run(qa_task, make_backend([])), agent())


class TestConsensus:
    def test_unanimous(self):
        solutions = {n: ans("B-1") for n in "ENMAT"}
        assert consensus_check(solutions) == ans("B-1")

    def test_label_equivalent_casings_agree(self):
        solutions = {
            "E": ans("Refuted", FACT),
            "N": ans("refuted", FACT),
            "M": ans("REFUTED", FACT),
        }
        shared = consensus_check(solutions)
        assert shared is not None
        assert shared.normalized == "refuted"

    def test_split_returns_none(self):
        assert consensus_check({"E": ans("5"), "N": ans("6")}) is None

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            consensus_check({})


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
        direct_solve(make_run(task, backend), a)
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

    def test_multi_agent_without_peer_review_is_invalid(self):
        with pytest.raises(InvalidConfig):
            PipelineConfig(panel=default_panel(), stages=frozenset({StageName.SELF_REVIEW}))

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


class PolicyBackend:
    """An order-independent backend for tests. Its reply is a function of the
    persona, the stage contract, the agent's own history length (its turn)
    and how often that same request arrived before, which only the agent's
    own format re-asks can repeat. It records one (start, end) span and the
    thread name of every call."""

    model_name = "policy"
    temperature = 0.0

    def __init__(self, reply, order_independent: bool = True, delay=lambda persona: 0.0):
        self.reply = reply
        self.order_independent = order_independent
        self.delay = delay
        self.spans: list[tuple[float, float]] = []
        self.threads: set[str] = set()
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
        try:
            time.sleep(self.delay(persona))
            return self.reply(persona, stage, turn, repeat)
        finally:
            with self._lock:
                self.spans.append((start, time.perf_counter()))


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
        # Presentations stay on the calling thread; every other call ran on the pool.
        assert {(stage, thread.startswith(PANEL_THREAD_PREFIX)) for stage, thread in calls} == {
            (Stage.ASSESS, True), (Stage.SOLVE, True), (Stage.VERIFY, True), (Stage.PRESENT, False)}
        sequential = run_panel(qa_task, config, PolicyBackend(unanimous_policy, order_independent=False))
        assert trace.to_json_line() == sequential.to_json_line()

    def test_twelve_persona_panel_stays_within_the_thread_cap(self, qa_task):
        personas = tuple(Persona(f"Scientist {i}", "Check the table") for i in range(12))
        # Panel validation admits at most 8 members; build a larger one
        # around it, since the cap guards the engine, not the config format.
        panel = object.__new__(Panel)
        object.__setattr__(panel, "members", personas)
        config = dataclasses.replace(ablation_presets()["full"], panel=panel)
        backend = PolicyBackend(unanimous_policy, delay=lambda persona: 0.01)
        trace = run_panel(qa_task, config, backend)
        assert trace.complete and trace.llm_calls == 12 * 4
        assert 1 < in_flight_max(backend.spans) <= PANEL_WIDTH_MAX
        pool_threads = {t for t in backend.threads if t.startswith(PANEL_THREAD_PREFIX)}
        assert len(pool_threads) <= PANEL_WIDTH_MAX
        assert panel_threads() == []

    def test_transport_error_lets_the_phase_finish_and_keeps_its_records(self, qa_task):
        def policy(persona, stage, turn, repeat):
            if stage is Stage.ASSESS and persona == "Isaac Newton":
                time.sleep(0.03)  # fails after Turing, yet comes first in agent order
                raise TransportError("newton unreachable")
            if stage is Stage.ASSESS and persona == "Alan Turing":
                raise TransportError("turing unreachable")
            return unanimous_policy(persona, stage, turn, repeat)

        backend = PolicyBackend(policy)
        trace = run_panel(qa_task, ablation_presets(seed=3)["full"], backend)
        assert not trace.complete and trace.final is None
        assert trace.error == "TransportError: newton unreachable"
        # Einstein, Curie and Tesla finish their investigation, in agent order.
        assert [(r.seq, r.agent, r.stage) for r in trace.records] == [
            (0, "Albert Einstein", "assess"), (1, "Albert Einstein", "solve"),
            (2, "Marie Curie", "assess"), (3, "Marie Curie", "solve"),
            (4, "Nikola Tesla", "assess"), (5, "Nikola Tesla", "solve"),
        ]
        assert trace.llm_calls == len(backend.spans) == 5 + 3
        assert panel_threads() == []


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
