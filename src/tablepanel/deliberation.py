"""The panel deliberation state machine.

One run walks a panel of persona-conditioned agents through up to three
stages: investigation (assess, then solve), self-review (verify with bounded
refinement), and peer review (ordered individual presentation, then bounded
collective deliberation rounds). One vote ends every panel: unanimity stops
it, and at the cap the majority answer wins. Every model exchange is
recorded into a replayable trace.

``run_panel`` builds one ``PanelRun`` per run: the task, its pipeline config,
backend, prompt templates and flattened table, and the recorder of its calls
and records. Every stage is a function of that run and its agents.

Agents never read each other during investigation, self-review or any one
deliberation round. Every job is started the same way, as one chain of works
per agent: its investigation, then its own self-review; then one chain for
the presentations, which run in the shuffled order because each presenter
sees the earlier ones; then one job per agent in each deliberation round.
When the backend declares that a reply depends on its request alone
(``order_independent``), the chains run concurrently on one thread pool per
run, one thread per agent, so an agent's self-review starts as soon as its
own investigation ends and a presenter waits only for its own self-review.
Without a pool the same chains run one after another in the calling thread.
Either way a job works on a copy of the run with its own recorder and
reports only that recorder and its backend error, if any; what it did to its
agents is on the agents. One rule ends a phase: records merge in job order
(the investigations, then the self-reviews, then the presentations) and the
first backend error in that order wins, so a trace is byte-identical to that
of a sequential run.
Distinct runs may also execute concurrently against one shared backend.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from types import MappingProxyType, NoneType
from typing import Callable, Mapping, Optional, Sequence

from .extraction import (
    Complexity,
    FormatError,
    Verdict,
    extract_assessment,
    extract_deliberation,
    extract_presentation,
    extract_solution,
    extract_verdict,
)
from .gateway import ChatBackend, ChatMessage, ChatRequest, GatewayError
from .personas import (
    Panel,
    Persona,
    PromptLibrary,
    Stage,
    alternative_panel,
    default_panel,
    persona_blurb,
    random_panel,
    render_prompt,
    task_description_for,
)
from .tables import Answer, TaskInstance, TaskKind, flatten_table

OUTCOME_UNANIMOUS_INITIAL = "UNANIMOUS_INITIAL"
OUTCOME_CONSENSUS_ROUND = "CONSENSUS_ROUND"
OUTCOME_MAJORITY_VOTE = "MAJORITY_VOTE"
# What a trace line's ``outcome`` may hold: an incomplete run has none.
_OUTCOMES = frozenset({OUTCOME_UNANIMOUS_INITIAL, OUTCOME_CONSENSUS_ROUND, OUTCOME_MAJORITY_VOTE,
                       None})

PANEL_THREAD_PREFIX = "tablepanel-panel"


class StageName(str, Enum):
    INVESTIGATION = "investigation"
    SELF_REVIEW = "self_review"
    PEER_REVIEW = "peer_review"


class StageFailed(RuntimeError):
    """A stage exhausted its format retries for one agent."""

    def __init__(self, persona: str, stage: Stage, reason: str):
        super().__init__(f"{persona} failed stage {stage.value}: {reason}")
        self.persona = persona
        self.stage = stage
        self.reason = reason


@dataclass(frozen=True)
class PipelineConfig:
    """Which stages run, with what iteration caps, over which panel.

    Every ablation row is one of these. ``format_retry`` is the number of
    re-asks allowed when a reply fails its output-format contract. Any set of
    stages may go with any panel; ``run_panel`` states how a panel without
    peer review ends.
    """

    panel: Panel
    stages: frozenset[StageName] = frozenset()
    t_max_self: int = 1
    t_max_panel: int = 1
    ordering_seed: int = 0
    format_retry: int = 1
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", frozenset(StageName(s) for s in self.stages))
        for name in ("t_max_self", "t_max_panel", "ordering_seed", "format_retry"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if type(self.name) is not str:
            raise ValueError(f"name must be a string, got {self.name!r}")
        if self.t_max_self < 1 or self.t_max_panel < 1:
            raise ValueError("t_max values must be >= 1")
        if self.format_retry < 0:
            raise ValueError("format_retry must be >= 0")

    def digest(self) -> str:
        payload = {
            "panel": [[p.name, p.focus_directive] for p in self.panel.members],
            "stages": sorted(s.value for s in self.stages),
            "t_max_self": self.t_max_self,
            "t_max_panel": self.t_max_panel,
            "ordering_seed": self.ordering_seed,
            "format_retry": self.format_retry,
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class AgentState:
    """One agent's working state for one task. ``history`` is the agent's
    process memory: its own prior exchanges, appended in order; agents never
    see each other's histories."""

    persona: Persona
    history: list[ChatMessage] = field(default_factory=list)
    complexity: Optional[Complexity] = None
    notes: tuple[str, ...] = ()
    current_solution: Optional[Answer] = None
    verdict: Optional[Verdict] = None
    failed_stage: Optional[str] = None

    @property
    def name(self) -> str:
        return self.persona.name


# The JSON types each field of a trace line may take; a boolean is no integer.
_RECORD_TYPES = {"seq": (int,), "agent": (str,), "stage": (str,), "raw": (str,), "ok": (bool,),
                 "parsed": (dict, NoneType), "error": (str, NoneType)}
_TRACE_TYPES = {"task_id": (str,), "config_digest": (str,), "records": (list,),
                "presentation_order": (list,), "rounds": (list,), "outcome": (str, NoneType),
                "consensus_round": (int, NoneType), "llm_calls": (int,), "failed_agents": (list,),
                "complete": (bool,), "error": (str, NoneType)}
_JSON_NAMES = {str: "a string", int: "an integer", bool: "true or false", list: "a list",
               dict: "an object", NoneType: "null"}
_STAGES = frozenset(s.value for s in Stage)


def _check_types(data: dict, types: Mapping[str, tuple[type, ...]]) -> None:
    """Raise TypeError unless every field of ``types`` that ``data`` holds has
    exactly one of the field's types."""
    for name, allowed in types.items():
        if name in data and type(data[name]) not in allowed:
            wanted = " or ".join(_JSON_NAMES[t] for t in allowed)
            raise TypeError(f"{name} must be {wanted}, got {data[name]!r}")


@dataclass(frozen=True)
class StageRecord:
    """One model exchange. Its ``seq`` in a trace line is its index in the
    trace's records, which keeps traces byte-stable across identical runs."""

    agent: str
    stage: str
    raw: str
    ok: bool
    parsed: Optional[dict] = None
    error: Optional[str] = None

    def to_json_dict(self, seq: int) -> dict:
        return {
            "seq": seq,
            "agent": self.agent,
            "stage": self.stage,
            "raw": self.raw,
            "ok": self.ok,
            "parsed": self.parsed,
            "error": self.error,
        }

    @classmethod
    def from_json_dict(cls, data: dict, seq: int) -> "StageRecord":
        _check_types(data, _RECORD_TYPES)
        if data["seq"] != seq:
            raise ValueError(f"record {seq} has seq {data['seq']!r}; records count 0, 1, 2, ...")
        if data["stage"] not in _STAGES:
            raise ValueError(f"stage must be one of {sorted(_STAGES)}, got {data['stage']!r}")
        return cls(
            agent=data["agent"],
            stage=data["stage"],
            raw=data["raw"],
            ok=data["ok"],
            parsed=data.get("parsed"),
            error=data.get("error"),
        )


def _answer_to_json(answer: Optional[Answer]) -> Optional[dict]:
    if answer is None:
        return None
    return {"raw": answer.raw, "normalized": answer.normalized}


def _answer_from_json(data: Optional[dict]) -> Optional[Answer]:
    if data is None:
        return None
    if not (type(data) is dict and type(data.get("raw")) is str
            and type(data.get("normalized")) is str):
        raise TypeError(f"answer {data!r} needs a string raw and normalized")
    return Answer(raw=data["raw"], normalized=data["normalized"])


@dataclass
class DeliberationTrace:
    """The complete replayable record of one panel run."""

    task_id: str
    config_digest: str
    records: list[StageRecord] = field(default_factory=list)
    presentation_order: list[str] = field(default_factory=list)
    rounds: list[dict[str, Answer]] = field(default_factory=list)
    outcome: Optional[str] = None
    consensus_round: Optional[int] = None
    final: Optional[Answer] = None
    llm_calls: int = 0
    failed_agents: list[str] = field(default_factory=list)
    complete: bool = True
    error: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "config_digest": self.config_digest,
            "records": [r.to_json_dict(seq) for seq, r in enumerate(self.records)],
            "presentation_order": list(self.presentation_order),
            "rounds": [
                {name: _answer_to_json(ans) for name, ans in rnd.items()}
                for rnd in self.rounds
            ],
            "outcome": self.outcome,
            "consensus_round": self.consensus_round,
            "final": _answer_to_json(self.final),
            "llm_calls": self.llm_calls,
            "failed_agents": list(self.failed_agents),
            "complete": self.complete,
            "error": self.error,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_json_dict(cls, data: dict) -> "DeliberationTrace":
        _check_types(data, _TRACE_TYPES)
        for name in ("presentation_order", "failed_agents"):
            if not all(type(v) is str for v in data.get(name, ())):
                raise TypeError(f"{name} must be a list of strings, got {data[name]!r}")
        if data["outcome"] not in _OUTCOMES:
            raise ValueError(f"outcome must be one of {sorted(_OUTCOMES - {None})} or null, "
                             f"got {data['outcome']!r}")
        return cls(
            task_id=data["task_id"],
            config_digest=data["config_digest"],
            records=[StageRecord.from_json_dict(r, seq) for seq, r in enumerate(data["records"])],
            presentation_order=list(data["presentation_order"]),
            rounds=[
                {name: _answer_from_json(ans) for name, ans in rnd.items()}
                for rnd in data["rounds"]
            ],
            outcome=data["outcome"],
            consensus_round=data.get("consensus_round"),
            final=_answer_from_json(data.get("final")),
            llm_calls=data["llm_calls"],
            failed_agents=list(data.get("failed_agents", [])),
            complete=data.get("complete", True),
            error=data.get("error"),
        )


class TraceRecorder:
    """Collects stage records in call order, and counts the backend calls
    made on its behalf, failed ones included."""

    def __init__(self) -> None:
        self.records: list[StageRecord] = []
        self.calls = 0

    def add(self, agent: str, stage: Stage, raw: str, ok: bool,
            parsed: Optional[dict] = None, error: Optional[str] = None) -> None:
        self.records.append(StageRecord(agent, stage.value, raw, ok, parsed, error))

    def merge(self, other: "TraceRecorder") -> None:
        """Append ``other``'s records and calls after this one's."""
        self.records.extend(other.records)
        self.calls += other.calls


@dataclass(frozen=True)
class PanelRun:
    """What every stage of one run shares. A job works on a copy with its
    own ``recorder``; the other fields are never replaced. ``pool``
    runs the job chains concurrently; without one they run in turn."""

    task: TaskInstance
    config: PipelineConfig
    backend: ChatBackend
    templates: PromptLibrary
    flattened: str
    recorder: TraceRecorder = field(default_factory=TraceRecorder)
    pool: Optional[Executor] = None

    def bindings(self, agent: AgentState, **extra: str) -> dict[str, str]:
        """The prompt bindings every stage shares, those the agent's own state
        gives (its assessment, and its solution once it has one), plus
        ``extra``, the stage's own."""
        bindings = {
            "persona": persona_blurb(agent.persona),
            "task_description": task_description_for(self.task.kind),
            "flattened_input": self.flattened,
            "query": self.task.query,
            "complexity": agent.complexity.value if agent.complexity else "not assessed",
            "notes": _notes_binding(agent.notes),
            **extra,
        }
        if agent.current_solution is not None:
            bindings["prior_solution"] = agent.current_solution.raw
        return bindings


def _submit(run: PanelRun, *works: Callable[[PanelRun], object]) -> list[Future]:
    """Run ``works`` one after another as one chain, each as one job on a
    copy of ``run`` with its own recorder: in one thread of ``run.pool``, or
    else at once in the calling thread. Return one future per work, set as
    soon as its work ends. Each holds its job's recorder and GatewayError,
    or any other exception, so a failing job never stops the others. A
    StageFailed ends a job quietly: the agent's ``failed_stage`` already
    records it."""
    def call(work: Callable[[PanelRun], object]) -> tuple[TraceRecorder, Optional[GatewayError]]:
        job = replace(run, recorder=TraceRecorder())
        try:
            work(job)
        except StageFailed:
            pass
        except GatewayError as exc:
            return job.recorder, exc
        return job.recorder, None

    def chain() -> None:
        for future, work in zip(futures, works):
            try:
                future.set_result(call(work))
            except Exception as exc:  # raised again where the future is read
                future.set_exception(exc)

    futures = [Future() for _ in works]
    if run.pool is not None:
        run.pool.submit(chain)
    else:
        chain()
    return futures


def _finish_jobs(run: PanelRun, jobs: Sequence[Future]) -> None:
    """Wait for every job of a phase, merge their records and calls into
    ``run.recorder`` in the order of ``jobs``, then raise the first
    GatewayError in that order. What a job did to its agents is on the
    agents themselves."""
    outcomes = [job.result() for job in jobs]
    for own, _ in outcomes:
        run.recorder.merge(own)
    for _, error in outcomes:
        if error is not None:
            raise error


def _notes_binding(notes: tuple[str, ...]) -> str:
    if not notes:
        return "- (none)"
    return "\n".join(f"- {p}" for p in notes)


def _parse(stage: Stage, raw: str, kind: TaskKind) -> tuple[dict, object]:
    """A reply's ``parsed`` record and the stage's value; raises FormatError
    when the reply breaks the stage's output contract. An answer outside a
    verification task's labels still counts as a (disagreeing) vote, and its
    record is flagged ``unmapped_label``."""
    if stage is Stage.ASSESS:
        complexity, notes = extract_assessment(raw)
        return {"complexity": complexity.value, "notes": list(notes)}, (complexity, notes)
    if stage is Stage.VERIFY:
        verdict = extract_verdict(raw)
        return {"verdict": verdict.value}, verdict
    if stage is Stage.SOLVE:
        value = answer = extract_solution(raw, kind)
        parsed = {}
    elif stage is Stage.PRESENT:
        value = answer, rationale = extract_presentation(raw, kind)
        parsed = {"rationale": rationale}
    else:
        value = answer, changed = extract_deliberation(raw, kind)
        parsed = {"changed": changed}
    parsed["answer"] = _answer_to_json(answer)
    if kind.label_set and answer.normalized not in kind.label_set:
        parsed["unmapped_label"] = True
    return parsed, value


def _exchange(run: PanelRun, agent: AgentState, stage: Stage, **extra: str) -> object:
    """Issue one stage prompt, bound to ``run.bindings(agent, **extra)``, with
    the agent's process memory spliced in, and return the reply's parsed value.

    Retries the identical request up to ``format_retry`` times when the reply
    violates the output contract; only the successful exchange is appended to
    the agent's history. When retries are exhausted, records the stage as the
    agent's ``failed_stage`` and raises StageFailed.
    """
    system, user = render_prompt(run.templates[stage], run.bindings(agent, **extra))
    request = ChatRequest(
        messages=(system, *agent.history, user),
        model_name=run.backend.model_name,
        temperature=run.backend.temperature,
    )
    last_reason = "no attempts made"
    for _ in range(run.config.format_retry + 1):
        run.recorder.calls += 1
        raw = run.backend.complete(request)
        try:
            parsed, value = _parse(stage, raw, run.task.kind)
        except FormatError as exc:
            last_reason = str(exc)
            run.recorder.add(agent.name, stage, raw, ok=False, error=last_reason)
            continue
        run.recorder.add(agent.name, stage, raw, ok=True, parsed=parsed)
        agent.history.append(user)
        agent.history.append(ChatMessage("assistant", raw))
        return value
    agent.failed_stage = stage.value
    raise StageFailed(agent.name, stage, last_reason)


def solve(run: PanelRun, agent: AgentState) -> AgentState:
    """Solve the way the run's stages say, for the first solve and every
    refinement alike: when the investigation stage is on, first assess the
    problem (complexity plus analytical notes); then formulate a solution,
    conditioned on the assessment when there is one. Raises StageFailed when
    a step exhausts its retries."""
    if StageName.INVESTIGATION in run.config.stages:
        agent.complexity, agent.notes = _exchange(run, agent, Stage.ASSESS)
    agent.current_solution = _exchange(run, agent, Stage.SOLVE)
    return agent


def self_review(run: PanelRun, agent: AgentState) -> AgentState:
    """Verify the current solution; while the verdict is uncertain and
    refinement iterations remain, solve again as the first solve did
    (``solve``) and verify again. After ``t_max_self`` refinements the
    latest solution stands regardless of verdict. A failed step keeps the
    last good solution with an uncertain verdict."""
    if agent.current_solution is None:
        raise ValueError("self_review requires a current solution")
    agent.verdict = Verdict.UNCERTAIN
    try:
        for refinement in range(run.config.t_max_self + 1):
            if refinement:
                solve(run, agent)
            agent.verdict = _exchange(run, agent, Stage.VERIFY)
            if agent.verdict is not Verdict.UNCERTAIN:
                break
    except StageFailed:
        pass
    return agent


def majority_vote(solutions: Mapping[str, Answer], presentation_order: Sequence[str]) -> Answer:
    """The most-supported normalized answer; ties go to the group whose
    earliest supporter presented earliest."""
    if not solutions:
        raise ValueError("majority_vote requires at least one solution")
    position = {name: i for i, name in enumerate(presentation_order)}
    support = Counter(answer.normalized for answer in solutions.values())

    def rank(name: str) -> tuple[int, int]:
        return -support[solutions[name].normalized], position.get(name, len(presentation_order))

    return solutions[min(solutions, key=rank)]


def _vote(answers: Mapping[str, Answer], order: Sequence[str]) -> tuple[Answer, bool]:
    """How every panel ends: the ``majority_vote`` answer, and whether every
    normalized answer equals it. A unanimous panel's answer is the one first
    in ``order``, or else first in ``answers``."""
    final = majority_vote(answers, order)
    return final, all(a.normalized == final.normalized for a in answers.values())


@dataclass
class PeerReviewResult:
    final: Answer
    outcome: str
    consensus_round: Optional[int]
    presentation_order: list[str]
    rounds: list[dict[str, Answer]]


def _format_peers(entries: Mapping[str, Answer], rationales: Mapping[str, str]) -> str:
    if not entries:
        return "(none yet; you present first)"
    lines = []
    for name, answer in entries.items():
        rationale = rationales.get(name, "")
        if rationale:
            lines.append(f"- {name}: {answer.raw} ({rationale})")
        else:
            lines.append(f"- {name}: {answer.raw}")
    return "\n".join(lines)


def peer_review(run: PanelRun, agents: Sequence[AgentState],
                reviews: Mapping[str, Future] = MappingProxyType({})) -> PeerReviewResult:
    """Ordered individual presentation, then bounded collective deliberation.

    Presentation order is a shuffle drawn from ``ordering_seed`` alone, so
    every task of a run presents in the same order; each presenter sees all
    earlier presentations and may adjust its answer. The answers after the
    presentations are round 0; up to ``t_max_panel`` deliberation rounds
    follow, each agent seeing the full previous round, its own entry
    included. ``_vote`` ends the panel: unanimity at round 0 is the outcome
    ``UNANIMOUS_INITIAL``, at a later round ``CONSENSUS_ROUND``, and without
    unanimity by the cap the majority answer wins (``MAJORITY_VOTE``). An
    agent whose presentation or deliberation fails keeps its last answer,
    abstains from later rounds, and still counts in every vote. A round's
    agents are those whose ``failed_stage`` is neither of these two, so one
    whose self-review failed deliberates in every round. They run
    concurrently on ``run.pool`` when the run has one.

    ``reviews`` maps agent names to their self-review jobs, each the second
    job of its agent's chain from ``run_panel`` and possibly still running.
    The presentations are one more job after them: each presenter waits for
    its own review alone, and the chain stops before the first presenter
    whose review raised a GatewayError. ``_finish_jobs`` then merges the
    review records in ``reviews`` order and the presentations after them, and
    raises the first error in that order, so a self-review's error wins over
    a presentation's.
    """
    if not agents or any(a.current_solution is None for a in agents):
        raise ValueError("peer_review requires agents with solutions")
    rng = random.Random(run.config.ordering_seed)
    order = list(agents)
    rng.shuffle(order)
    presentation_order = [a.name for a in order]

    rationales: dict[str, str] = {}
    presented: dict[str, Answer] = {}

    def present(job: PanelRun) -> None:
        for agent in order:
            if agent.name in reviews and reviews[agent.name].result()[1] is not None:
                return
            try:
                agent.current_solution, rationales[agent.name] = _exchange(
                    job, agent, Stage.PRESENT, peer_solutions=_format_peers(presented, rationales))
            except StageFailed:
                pass
            presented[agent.name] = agent.current_solution

    _finish_jobs(run, [*reviews.values(), *_submit(run, present)])

    rounds: list[dict[str, Answer]] = []
    for round_no in range(run.config.t_max_panel + 1):
        if round_no:
            peers = _format_peers(rounds[-1], rationales)

            def deliberate(job: PanelRun, agent: AgentState) -> None:
                agent.current_solution, _ = _exchange(job, agent, Stage.DELIBERATE,
                                                      peer_solutions=peers)

            active = [a for a in order if a.failed_stage not in (Stage.PRESENT, Stage.DELIBERATE)]
            _finish_jobs(run, [_submit(run, lambda job, agent=agent: deliberate(job, agent))[0]
                               for agent in active])
        # An abstaining agent's current solution is its answer of the previous round.
        rounds.append({a.name: a.current_solution for a in order})
        final, unanimous = _vote(rounds[-1], presentation_order)
        if unanimous:
            outcome = OUTCOME_CONSENSUS_ROUND if round_no else OUTCOME_UNANIMOUS_INITIAL
            return PeerReviewResult(final, outcome, round_no or None, presentation_order, rounds[1:])
    return PeerReviewResult(final, OUTCOME_MAJORITY_VOTE, None, presentation_order, rounds[1:])


def run_panel(
    task: TaskInstance,
    config: PipelineConfig,
    backend: ChatBackend,
    templates: Optional[PromptLibrary] = None,
) -> DeliberationTrace:
    """Execute the configured stages for one task and return the full trace.

    Agents whose investigation fails are excluded from the panel; transport
    or API errors abort the task and mark the trace incomplete instead of
    raising. A transport error lets the phase's other agents finish first:
    the trace keeps every record and counts every call made, and carries the
    error of the first failing agent in agent order. One in investigation
    also lets the other agents' self-reviews run to their end, their records
    after every investigation record, and its error wins over theirs. A
    failed self-review stops the presentations before its agent presents, and
    the presentations already made stay in the trace after every review
    record; a self-review's error wins over a presentation's. Each agent's
    self-review follows its own investigation in one job chain. When the
    backend is ``order_independent`` the chains run concurrently, and the
    presentation chain starts once every investigation has ended, each
    presenter once its own review is done; otherwise the same chains run one
    after another. The trace is the same either way.

    Without the peer-review stage a panel ends on its solvers' answers by
    the vote peer review ends by (``_vote``): one shared answer is the
    outcome ``UNANIMOUS_INITIAL``; otherwise the majority answer wins, ties
    going to the member earlier in panel order, and the outcome is
    ``MAJORITY_VOTE``. Such a trace has no presentation order and no rounds.
    A one-member panel always ends unanimous.
    """
    agents = [AgentState(persona=p) for p in config.panel.members]
    fan_out = len(agents) > 1 and getattr(backend, "order_independent", False)
    run = PanelRun(task, config, backend, templates or PromptLibrary.default(),
                   flatten_table(task.table, task.context),
                   pool=ThreadPoolExecutor(len(agents), thread_name_prefix=PANEL_THREAD_PREFIX)
                   if fan_out else None)
    trace = DeliberationTrace(task_id=task.id, config_digest=config.digest())
    try:
        # One chain per agent: its investigation, then its own self-review.
        reviewing = StageName.SELF_REVIEW in config.stages
        chains = {agent.name: _submit(run, lambda job, agent=agent: solve(job, agent),
                                      *([lambda job, agent=agent: agent.current_solution is None
                                         or self_review(job, agent)] if reviewing else []))
                  for agent in agents}
        investigations = [chain[0] for chain in chains.values()]
        # A non-solver's review is a no-op: it adds no record, call or error.
        reviews = {name: chain[1] for name, chain in chains.items() if reviewing}
        # A backend error in investigation ends the task once the other agents'
        # self-reviews have ended too; their records follow the investigations'.
        failed = any(job.result()[1] is not None for job in investigations)
        _finish_jobs(run, [*investigations, *reviews.values()] if failed else investigations)
        solvers = [a for a in agents if a.current_solution is not None]

        if not solvers:
            trace.complete = False
            trace.error = "no agent produced a solution"
        elif StageName.PEER_REVIEW in config.stages:
            result = peer_review(run, solvers, reviews)
            trace.presentation_order = result.presentation_order
            trace.rounds = result.rounds
            trace.outcome = result.outcome
            trace.consensus_round = result.consensus_round
            trace.final = result.final
        else:
            _finish_jobs(run, reviews.values())
            trace.final, unanimous = _vote({a.name: a.current_solution for a in solvers}, ())
            trace.outcome = OUTCOME_UNANIMOUS_INITIAL if unanimous else OUTCOME_MAJORITY_VOTE
    except GatewayError as exc:
        trace.complete = False
        trace.error = f"{type(exc).__name__}: {exc}"
    finally:
        if run.pool is not None:
            run.pool.shutdown()

    trace.records = run.recorder.records
    trace.failed_agents = [a.name for a in agents if a.failed_stage is not None]
    trace.llm_calls = run.recorder.calls
    return trace


def ablation_presets(seed: int = 0) -> dict[str, PipelineConfig]:
    """The ten named pipeline configurations used for component and role
    ablations. Order matters: reports list rows in this order."""
    solo = Panel((default_panel().members[0],))
    five = default_panel()
    inv, slf, peer = StageName.INVESTIGATION, StageName.SELF_REVIEW, StageName.PEER_REVIEW

    def cfg(name: str, stages: set, panel: Panel) -> PipelineConfig:
        return PipelineConfig(panel=panel, stages=frozenset(stages),
                              ordering_seed=seed, name=name)

    return {
        "vanilla": cfg("vanilla", set(), solo),
        "vanilla+self": cfg("vanilla+self", {slf}, solo),
        "vanilla+peer": cfg("vanilla+peer", {peer}, five),
        "vanilla+self+peer": cfg("vanilla+self+peer", {slf, peer}, five),
        "investigation": cfg("investigation", {inv}, solo),
        "investigation+self": cfg("investigation+self", {inv, slf}, solo),
        "investigation+peer": cfg("investigation+peer", {inv, peer}, five),
        "full": cfg("full", {inv, slf, peer}, five),
        "full-random-role": cfg("full-random-role", {inv, slf, peer}, random_panel(seed, five)),
        "full-alt-role": cfg("full-alt-role", {inv, slf, peer}, alternative_panel()),
    }
