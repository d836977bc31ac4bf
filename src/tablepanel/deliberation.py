"""The panel deliberation state machine.

One run walks a panel of persona-conditioned agents through up to three
stages: investigation (assess, then solve), self-review (verify with bounded
re-assessment), and peer review (ordered individual presentation, consensus
short-circuit, bounded collective deliberation rounds, majority-vote
fallback). Every model exchange is recorded into a replayable trace.

``run_panel`` builds one ``PanelRun`` per run: the task, its pipeline config,
backend, prompt templates and flattened table, and the recorder of its calls
and records. Every stage is a function of that run and its agents.

Agents never read each other during investigation, self-review or any one
deliberation round. When the backend declares that a reply depends on its
request alone (``order_independent``), those phases run their agents' jobs
concurrently on one thread pool per run, at most ``PANEL_WIDTH_MAX`` threads
wide. Presentations stay sequential in the shuffled order, because each
presenter sees the earlier ones. Every job works on a copy of the run with its
own recorder, whose records are merged back in agent order, so a trace is
byte-identical to that of a sequential run. Distinct runs may also execute
concurrently against one shared backend.
"""

from __future__ import annotations

import hashlib
import json
import random
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Mapping, Optional, Sequence

from .extraction import (
    AnalyticalNotes,
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
from .tables import Answer, TaskInstance, TaskKind, UnmappableLabel, flatten_table

OUTCOME_UNANIMOUS_INITIAL = "UNANIMOUS_INITIAL"
OUTCOME_CONSENSUS_ROUND = "CONSENSUS_ROUND"
OUTCOME_MAJORITY_VOTE = "MAJORITY_VOTE"

# Most agents' calls one run has in flight at once, so a process running
# ``jobs`` panels concurrently holds at most ``jobs * PANEL_WIDTH_MAX`` panel
# threads.
PANEL_WIDTH_MAX = 8
PANEL_THREAD_PREFIX = "tablepanel-panel"


class StageName(str, Enum):
    INVESTIGATION = "investigation"
    SELF_REVIEW = "self_review"
    PEER_REVIEW = "peer_review"


class InvalidConfig(ValueError):
    pass


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
    re-asks allowed when a reply fails its output-format contract.
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
        if self.t_max_self < 1 or self.t_max_panel < 1:
            raise InvalidConfig("t_max values must be >= 1")
        if self.format_retry < 0:
            raise InvalidConfig("format_retry must be >= 0")
        if StageName.PEER_REVIEW not in self.stages and len(self.panel) != 1:
            raise InvalidConfig("a panel larger than one requires the peer-review stage")

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
    notes: Optional[AnalyticalNotes] = None
    current_solution: Optional[Answer] = None
    rationale: str = ""
    verdict: Optional[Verdict] = None
    failed_stage: Optional[str] = None

    @property
    def name(self) -> str:
        return self.persona.name


@dataclass(frozen=True)
class StageRecord:
    """One model exchange. ``seq`` is the call index within the run, which
    keeps traces byte-stable across identical runs."""

    seq: int
    agent: str
    stage: str
    raw: str
    ok: bool
    parsed: Optional[dict] = None
    error: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {
            "seq": self.seq,
            "agent": self.agent,
            "stage": self.stage,
            "raw": self.raw,
            "ok": self.ok,
            "parsed": self.parsed,
            "error": self.error,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "StageRecord":
        return cls(
            seq=data["seq"],
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
    if not (isinstance(data["raw"], str) and isinstance(data["normalized"], str)):
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
            "records": [r.to_json_dict() for r in self.records],
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
        if not isinstance(data.get("complete", True), bool):
            raise TypeError(f"complete must be true or false, got {data['complete']!r}")
        return cls(
            task_id=data["task_id"],
            config_digest=data["config_digest"],
            records=[StageRecord.from_json_dict(r) for r in data["records"]],
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
    """Collects stage records with a deterministic per-run sequence index,
    and counts the backend calls made on its behalf, failed ones included."""

    def __init__(self) -> None:
        self.records: list[StageRecord] = []
        self.calls = 0

    def add(self, agent: str, stage: Stage, raw: str, ok: bool,
            parsed: Optional[dict] = None, error: Optional[str] = None) -> None:
        self.records.append(StageRecord(
            seq=len(self.records), agent=agent, stage=stage.value, raw=raw,
            ok=ok, parsed=parsed, error=error,
        ))

    def merge(self, other: "TraceRecorder") -> None:
        """Append ``other``'s records after this one's, renumbering ``seq``."""
        for record in other.records:
            self.records.append(replace(record, seq=len(self.records)))
        self.calls += other.calls


@dataclass(frozen=True)
class PanelRun:
    """What every stage of one run shares. A concurrent job works on a copy
    with its own ``recorder``; the other fields are never replaced."""

    task: TaskInstance
    config: PipelineConfig
    backend: ChatBackend
    templates: PromptLibrary
    flattened: str
    recorder: TraceRecorder = field(default_factory=TraceRecorder)

    def bindings(self, agent: AgentState, **extra: str) -> dict[str, str]:
        """The prompt bindings every stage shares, plus the stage's own."""
        return {
            "persona": persona_blurb(agent.persona),
            "task_description": task_description_for(self.task.kind),
            "flattened_input": self.flattened,
            "query": self.task.query.text,
            **extra,
        }


def _run_jobs(run: PanelRun, step: Callable[[PanelRun, AgentState], object],
              agents: Sequence[AgentState], pool: Optional[Executor]) -> list:
    """Run one phase's ``step(job, agent)`` for each agent, each job on a copy
    of ``run`` with its own recorder; merge their records and calls into
    ``run.recorder`` in agent order, and return their results in that order.
    Without a pool the jobs run in the calling thread and a GatewayError
    stops the phase; with one, the other jobs finish first. Either way the
    first GatewayError in agent order is then raised."""
    def call(agent: AgentState) -> tuple[TraceRecorder, object, Optional[GatewayError]]:
        job = replace(run, recorder=TraceRecorder())
        try:
            return job.recorder, step(job, agent), None
        except GatewayError as exc:
            return job.recorder, None, exc

    if pool is None or len(agents) < 2:
        outcomes = []
        for agent in agents:
            outcomes.append(call(agent))
            if outcomes[-1][2] is not None:
                break
    else:
        futures = [pool.submit(call, agent) for agent in agents]
        outcomes = [f.result() for f in futures]
    for own, _, _ in outcomes:
        run.recorder.merge(own)
    for _, _, error in outcomes:
        if error is not None:
            raise error
    return [result for _, result, _ in outcomes]


def _notes_binding(notes: Optional[AnalyticalNotes]) -> str:
    if notes is None or not notes.points:
        return "- (none)"
    return "\n".join(f"- {p}" for p in notes.points)


# A verification answer that maps to no admissible label still counts as a
# (disagreeing) vote: re-extract it under a generic kind so it normalizes
# without label mapping and can never equal a canonical label.
_GENERIC_KIND = TaskKind.sql_denotation()


def _answer_extractor(extract: Callable, kind: TaskKind, fields: tuple[str, ...] = ()):
    """An extractor for a reply that carries an answer. ``extract(raw, kind)``
    returns the answer, or when ``fields`` is given a tuple of the answer and
    one value per field name; the parse records each under its name."""
    def extractor(raw: str):
        parsed: dict = {}
        try:
            value = extract(raw, kind)
        except UnmappableLabel:
            value = extract(raw, _GENERIC_KIND)
            parsed["unmapped_label"] = True
        answer, *rest = value if fields else (value,)
        parsed["answer"] = _answer_to_json(answer)
        parsed.update(zip(fields, rest))
        return parsed, value
    return extractor


def _exchange(
    run: PanelRun,
    agent: AgentState,
    stage: Stage,
    bindings: Mapping[str, str],
    extract: Callable[[str], tuple[Optional[dict], object]],
) -> object:
    """Issue one stage prompt with the agent's process memory spliced in.

    Retries the identical request up to ``format_retry`` times when the reply
    violates the output contract; only the successful exchange is appended to
    the agent's history. Raises StageFailed when retries are exhausted.
    """
    system, user = render_prompt(run.templates[stage], bindings)
    last_reason = "no attempts made"
    for _ in range(run.config.format_retry + 1):
        request = ChatRequest(
            messages=(system, *agent.history, user),
            model_name=run.backend.model_name,
            temperature=run.backend.temperature,
        )
        run.recorder.calls += 1
        raw = run.backend.complete(request)
        try:
            parsed_json, value = extract(raw)
        except FormatError as exc:
            last_reason = str(exc)
            run.recorder.add(agent.name, stage, raw, ok=False, error=last_reason)
            continue
        run.recorder.add(agent.name, stage, raw, ok=True, parsed=parsed_json)
        agent.history.append(user)
        agent.history.append(ChatMessage("assistant", raw))
        return value
    raise StageFailed(agent.name, stage, last_reason)


def investigate(run: PanelRun, agent: AgentState) -> AgentState:
    """Assess the problem (complexity plus analytical notes), then formulate
    an initial solution conditioned on that assessment. Two backend calls on
    the happy path. Raises StageFailed when a step exhausts its retries."""
    def extract(raw: str):
        complexity, notes = extract_assessment(raw)
        return {"complexity": complexity.value, "notes": list(notes.points)}, (complexity, notes)

    agent.complexity, agent.notes = _exchange(run, agent, Stage.ASSESS, run.bindings(agent), extract)
    return direct_solve(run, agent)


def direct_solve(run: PanelRun, agent: AgentState) -> AgentState:
    """Answer in one solve call, conditioned on the agent's assessment when
    it has one."""
    bindings = run.bindings(
        agent,
        complexity=agent.complexity.value if agent.complexity else "not assessed",
        notes=_notes_binding(agent.notes),
    )
    agent.current_solution = _exchange(run, agent, Stage.SOLVE, bindings,
                                       _answer_extractor(extract_solution, run.task.kind))
    return agent


def self_review(run: PanelRun, agent: AgentState) -> AgentState:
    """Verify the current solution; while the verdict is uncertain and
    refinement iterations remain, re-investigate and verify again. After
    ``t_max_self`` refinements the latest solution stands regardless of
    verdict. A failed step keeps the last good solution with an uncertain
    verdict."""
    if agent.current_solution is None:
        raise ValueError("self_review requires a current solution")

    def verify_once() -> Verdict:
        def extract(raw: str):
            verdict = extract_verdict(raw)
            return {"verdict": verdict.value}, verdict

        bindings = run.bindings(agent, prior_solution=agent.current_solution.raw)
        return _exchange(run, agent, Stage.VERIFY, bindings, extract)

    try:
        agent.verdict = verify_once()
        iterations = 0
        while agent.verdict is Verdict.UNCERTAIN and iterations < run.config.t_max_self:
            investigate(run, agent)
            agent.verdict = verify_once()
            iterations += 1
    except StageFailed as exc:
        agent.verdict = Verdict.UNCERTAIN
        agent.failed_stage = exc.stage.value
    return agent


def consensus_check(solutions: Mapping[str, Answer]) -> Optional[Answer]:
    """The shared answer iff every normalized form is identical, else None."""
    if not solutions:
        raise ValueError("consensus_check requires at least one solution")
    answers = list(solutions.values())
    first = answers[0]
    if all(a.normalized == first.normalized for a in answers[1:]):
        return first
    return None


def majority_vote(solutions: Mapping[str, Answer], presentation_order: Sequence[str]) -> Answer:
    """The most-supported normalized answer; ties go to the group whose
    earliest supporter presented earliest."""
    if not solutions:
        raise ValueError("majority_vote requires at least one solution")
    position = {name: i for i, name in enumerate(presentation_order)}
    fallback = len(presentation_order)
    groups: dict[str, list[str]] = {}
    for name in solutions:
        groups.setdefault(solutions[name].normalized, []).append(name)

    def rank(item: tuple[str, list[str]]) -> tuple[int, int]:
        _, supporters = item
        earliest = min(position.get(n, fallback) for n in supporters)
        return (-len(supporters), earliest)

    _, winners = min(groups.items(), key=rank)
    leader = min(winners, key=lambda n: position.get(n, fallback))
    return solutions[leader]


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
                pool: Optional[Executor] = None) -> PeerReviewResult:
    """Ordered individual presentation, then bounded collective deliberation.

    Presentation order is a seed-determined shuffle; each presenter sees all
    earlier presentations and may adjust its answer. Unanimity after the
    presentations ends the run; otherwise up to ``t_max_panel`` deliberation
    rounds run, each agent seeing the full previous round, with a consensus
    check after each round and majority voting at the cap. An agent whose
    presentation or deliberation fails keeps its last answer, abstains from
    later rounds, and still counts in every consensus check and vote. A
    round's agents run concurrently on ``pool`` when one is given.
    """
    if not agents or any(a.current_solution is None for a in agents):
        raise ValueError("peer_review requires agents with solutions")
    rng = random.Random(run.config.ordering_seed)
    order = list(agents)
    rng.shuffle(order)
    presentation_order = [a.name for a in order]

    frozen: set[str] = set()
    rationales: dict[str, str] = {}
    presented: dict[str, Answer] = {}

    present_extract = _answer_extractor(extract_presentation, run.task.kind, ("rationale",))
    for agent in order:
        bindings = run.bindings(agent, prior_solution=agent.current_solution.raw,
                                peer_solutions=_format_peers(presented, rationales))
        try:
            answer, rationale = _exchange(run, agent, Stage.PRESENT, bindings, present_extract)
            agent.current_solution = answer
            agent.rationale = rationale
            rationales[agent.name] = rationale
        except StageFailed as exc:
            agent.failed_stage = exc.stage.value
            frozen.add(agent.name)
        presented[agent.name] = agent.current_solution

    shared = consensus_check(presented)
    if shared is not None:
        return PeerReviewResult(shared, OUTCOME_UNANIMOUS_INITIAL, None, presentation_order, [])

    deliberate_extract = _answer_extractor(extract_deliberation, run.task.kind, ("changed",))
    rounds: list[dict[str, Answer]] = []
    current = presented
    for round_no in range(1, run.config.t_max_panel + 1):
        previous = dict(current)

        def deliberate(job: PanelRun, agent: AgentState) -> bool:
            """One agent's turn in this round; True when it failed and so freezes."""
            # Each agent sees the full previous round, its own entry included.
            bindings = job.bindings(agent, prior_solution=agent.current_solution.raw,
                                    peer_solutions=_format_peers(previous, rationales))
            try:
                agent.current_solution, _changed = _exchange(
                    job, agent, Stage.DELIBERATE, bindings, deliberate_extract)
            except StageFailed as exc:
                agent.failed_stage = exc.stage.value
                return True
            return False

        active = [a for a in order if a.name not in frozen]
        failed = _run_jobs(run, deliberate, active, pool)
        frozen.update(a.name for a, f in zip(active, failed) if f)
        # A frozen agent's current solution is its answer of the previous round.
        current = {a.name: a.current_solution for a in order}
        rounds.append(current)
        shared = consensus_check(current)
        if shared is not None:
            return PeerReviewResult(shared, OUTCOME_CONSENSUS_ROUND, round_no, presentation_order, rounds)

    final = majority_vote(current, presentation_order)
    return PeerReviewResult(final, OUTCOME_MAJORITY_VOTE, None, presentation_order, rounds)


def run_panel(
    task: TaskInstance,
    config: PipelineConfig,
    backend: ChatBackend,
    templates: Optional[PromptLibrary] = None,
) -> DeliberationTrace:
    """Execute the configured stages for one task and return the full trace.

    Agents whose investigation fails are excluded from the panel; transport
    or API errors abort the task and mark the trace incomplete instead of
    raising. When the backend is ``order_independent`` the agents of every
    phase but the presentations run concurrently, and a transport error lets
    the phase's other agents finish first: the trace keeps every record and
    counts every call made, and carries the error of the first failing agent
    in agent order.
    """
    run = PanelRun(task, config, backend, templates or PromptLibrary.default(),
                   flatten_table(task.table, task.context))
    trace = DeliberationTrace(task_id=task.id, config_digest=config.digest())
    agents = [AgentState(persona=p) for p in config.panel.members]
    first_solve = investigate if StageName.INVESTIGATION in config.stages else direct_solve

    def solve(job: PanelRun, agent: AgentState) -> None:
        try:
            first_solve(job, agent)
        except StageFailed as exc:
            agent.failed_stage = exc.stage.value

    width = min(len(agents), PANEL_WIDTH_MAX) if getattr(backend, "order_independent", False) else 1
    pool = ThreadPoolExecutor(width, thread_name_prefix=PANEL_THREAD_PREFIX) if width > 1 else None
    try:
        _run_jobs(run, solve, agents, pool)
        solvers = [a for a in agents if a.current_solution is not None]
        if StageName.SELF_REVIEW in config.stages:
            _run_jobs(run, self_review, solvers, pool)

        if not solvers:
            trace.complete = False
            trace.error = "no agent produced a solution"
        elif StageName.PEER_REVIEW in config.stages:
            result = peer_review(run, solvers, pool)
            trace.presentation_order = result.presentation_order
            trace.rounds = result.rounds
            trace.outcome = result.outcome
            trace.consensus_round = result.consensus_round
            trace.final = result.final
        else:
            # A lone answer is trivially unanimous.
            trace.outcome = OUTCOME_UNANIMOUS_INITIAL
            trace.final = solvers[0].current_solution
    except GatewayError as exc:
        trace.complete = False
        trace.error = f"{type(exc).__name__}: {exc}"
    finally:
        if pool is not None:
            pool.shutdown()

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
