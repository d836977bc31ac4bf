"""Reply policy of the modelled panel, shared by the loopback stub and the
scripted-backend generator.

Every task in a generated corpus has a scenario. The scenario fixes, for each
panel member (by position in the panel), the verdicts, answers and positions
it gives at each stage and each occurrence of that stage. A reply is
therefore a pure function of (task, member, stage, occurrence), and
occurrence is read from the member's own history, so replies never depend on
the order in which requests arrive.

The symbols ``"R"`` and ``"W"`` stand for the task's two answers; a task's
``right`` answer is the corpus gold and ``wrong`` is another value of the
same table. The scenarios only use strict majorities, so the expected final
answer never depends on the presentation order.

This module is stdlib-only: the stub process imports it without tablepanel.
"""

from __future__ import annotations

from collections import Counter

STAGES = ("assess", "solve", "verify", "present", "deliberate")
PANEL_SIZE = 5

# Marker that identifies a member's earlier successful reply of each stage in
# its history. Solve replies carry only ANSWER, which later stages repeat.
_REPLY_MARKERS = {
    "assess": "COMPLEXITY:",
    "verify": "VERDICT:",
    "present": "RATIONALE:",
    "deliberate": "POSITION:",
}


def _member(verify=("validated",), solve=("R",), present="R", rounds=()):
    return {"verify": list(verify), "solve": list(solve), "present": present,
            "rounds": [list(r) for r in rounds]}


_DOUBTER_W = _member(verify=("uncertain", "uncertain"), solve=("W", "W"), present="W")
_DOUBTER_R = _member(verify=("uncertain", "uncertain"), solve=("R", "R"))

PLANS = {
    # Everyone validates and presents the same answer: 20 calls.
    "unanimous": [_member() for _ in range(PANEL_SIZE)],
    # Two members doubt their first answer; one still presents W and is
    # persuaded in round 1.
    "consensus_r1": [
        _member(verify=("uncertain", "validated"), solve=("W", "W"), present="W",
                rounds=(("change", "R"),)),
        _member(verify=("uncertain", "validated"), solve=("W", "R")),
        _member(), _member(), _member(),
    ],
    # Two dissenters; one changes in round 1, the other in round 2 (with a
    # round cap of 1 this ends in a 4:1 majority vote).
    "consensus_r2": [
        _member(), _member(),
        _member(verify=("uncertain", "validated"), solve=("W", "W"), present="W",
                rounds=(("keep", "W"), ("change", "R"))),
        _member(solve=("W",), present="W", rounds=(("change", "R"),)),
        _member(),
    ],
    # Every member stays uncertain and nobody moves: a 3:2 majority vote for
    # the wrong answer after the last round (50 calls at t_max_panel=3).
    "adversarial": [_DOUBTER_W, _DOUBTER_W, _DOUBTER_W, _DOUBTER_R, _DOUBTER_R],
}


def deliberate_step(member: dict, round_no: int) -> tuple[str, str]:
    """(position, answer symbol) of a member in deliberation round ``round_no``
    (1-based); after its scripted rounds a member keeps its last answer."""
    rounds = member["rounds"]
    if round_no <= len(rounds):
        return tuple(rounds[round_no - 1])
    last = rounds[-1][1] if rounds else member["present"]
    return "keep", last


def expected_outcome(scenario: str, t_max_panel: int) -> dict:
    """Outcome, consensus round, final answer symbol and rounds run, as the
    documented peer-review semantics imply."""
    plan = PLANS[scenario]
    answers = [m["present"] for m in plan]
    if len(set(answers)) == 1:
        return {"outcome": "UNANIMOUS_INITIAL", "consensus_round": None,
                "final": answers[0], "rounds": 0}
    for round_no in range(1, t_max_panel + 1):
        answers = [deliberate_step(m, round_no)[1] for m in plan]
        if len(set(answers)) == 1:
            return {"outcome": "CONSENSUS_ROUND", "consensus_round": round_no,
                    "final": answers[0], "rounds": round_no}
    symbol, votes = Counter(answers).most_common(1)[0]
    if 2 * votes <= len(answers):
        raise ValueError(f"scenario {scenario} has no strict majority")
    return {"outcome": "MAJORITY_VOTE", "consensus_round": None,
            "final": symbol, "rounds": t_max_panel}


def member_calls(scenario: str, index: int, t_max_panel: int) -> list[tuple[str, int]]:
    """The (stage, occurrence) sequence one member goes through, with
    t_max_self=1 and no format failures."""
    member = PLANS[scenario][index]
    calls = [("assess", 0), ("solve", 0), ("verify", 0)]
    if member["verify"][0] == "uncertain":
        calls += [("assess", 1), ("solve", 1), ("verify", 1)]
    calls.append(("present", 0))
    rounds = expected_outcome(scenario, t_max_panel)["rounds"]
    calls += [("deliberate", r) for r in range(rounds)]
    return calls


def reply(scenario: str, index: int, stage: str, occurrence: int,
          right: str, wrong: str, malformed: bool = False) -> str:
    """The model's reply text; ``malformed`` breaks the stage's contract."""
    member = PLANS[scenario][index]
    answers = {"R": right, "W": wrong}
    if stage == "assess":
        if malformed:
            return "I would start by locating the row the question names."
        complexity = "basic" if occurrence == 0 else "intermediate"
        return (f"COMPLEXITY: {complexity}\nNOTES:\n"
                "- locate the row named in the question\n- read the requested column")
    if stage == "solve":
        if malformed:
            return "The row gives the value directly."
        return f"ANSWER: {answers[member['solve'][occurrence]]}"
    if stage == "verify":
        return f"VERDICT: {'probably' if malformed else member['verify'][occurrence]}"
    if stage == "present":
        if malformed:
            return "RATIONALE: read from the table"
        return f"RATIONALE: read from the named row\nANSWER: {answers[member['present']]}"
    if stage == "deliberate":
        position, symbol = deliberate_step(member, occurrence + 1)
        if malformed:
            return f"ANSWER: {answers[symbol]}"
        return f"POSITION: {position}\nANSWER: {answers[symbol]}"
    raise ValueError(f"unknown stage {stage!r}")


def stage_of(system_text: str, contracts: dict) -> str:
    """The stage whose output contract the system message carries."""
    for stage, contract in contracts.items():
        if contract in system_text:
            return stage
    raise ValueError("system message carries no known output contract")


def occurrence_of(stage: str, history: list) -> int:
    """How many successful replies of ``stage`` the member's history holds.

    ``history`` is the list of message dicts between system and final user
    message; only successful exchanges are ever appended to it."""
    replies = [m["content"] for m in history if m["role"] == "assistant"]
    if stage == "solve":
        return sum(1 for r in replies if "ANSWER:" in r
                   and "RATIONALE:" not in r and "POSITION:" not in r)
    return sum(1 for r in replies if _REPLY_MARKERS[stage] in r)


def task_ref(text: str) -> str:
    """The ``(ref X)`` tag every generated query ends with."""
    start = text.rfind("(ref ")
    if start < 0:
        raise ValueError("no task reference in request")
    end = text.find(")", start)
    return text[start + 5:end]
