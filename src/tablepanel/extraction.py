"""Regex parsing of model output into typed stage results.

The marker grammar here (COMPLEXITY:, NOTES:, ANSWER:, VERDICT:, POSITION:,
RATIONALE:) is the same one embedded in the stage prompts, so prompts and
extractors cannot drift apart. Markers are matched case-insensitively, one
per line; the last ANSWER line wins because models often restate their
answer. A marker or bullet line may end in LF or CRLF, and no value keeps
the "\r". Every extractor either returns a value or raises FormatError; all
are pure functions of the raw text.
"""

from __future__ import annotations

import re
from enum import Enum

from .tables import Answer, TaskKind


class FormatError(ValueError):
    def __init__(self, expected_marker: str, detail: str = ""):
        message = f"expected marker {expected_marker!r} not found"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.expected_marker = expected_marker


class Complexity(str, Enum):
    BASIC = "basic"
    INTERMEDIATE = "intermediate"
    COMPLEX = "complex"


class Verdict(str, Enum):
    UNCERTAIN = "uncertain"
    VALIDATED = "validated"


# The POSITION choices of a deliberation reply: keep the answer, or change it.
POSITIONS = ("keep", "change")
_COMPLEXITIES, _VERDICTS = tuple(Complexity), tuple(Verdict)


# A value never holds "\r" or "\n".
_TEXT = r"[^\r\n]*?"


def _marker(name: str, value: str) -> re.Pattern:
    """The one reply line rule: optional leading spaces and tabs, the
    case-insensitive ``name``, the captured ``value``, then trailing spaces,
    tabs and at most one "\r" before the line end."""
    return re.compile(rf"^[ \t]*{name}[ \t]*({value})[ \t]*\r?$", re.I | re.M)


_COMPLEXITY_RE = _marker("COMPLEXITY:", _TEXT)
_NOTES_RE = _marker("NOTES:", "")
_ANSWER_RE = _marker("ANSWER:", _TEXT)
_VERDICT_RE = _marker("VERDICT:", _TEXT)
_POSITION_RE = _marker("POSITION:", _TEXT)
_RATIONALE_RE = _marker("RATIONALE:", _TEXT)
_BULLET_RE = _marker("-", _TEXT)


def _choice(raw: str, pattern: re.Pattern, marker: str, choices: tuple[str, ...]) -> str:
    """The first ``pattern`` value, stripped and lower-cased; raises
    FormatError when the marker is absent or blank, or the value is not a
    choice. The members of a str Enum are choices, as each equals its value."""
    m = pattern.search(raw)
    value = m.group(1).strip().lower() if m else ""
    if not value:
        raise FormatError(marker)
    if value not in choices:
        raise FormatError(marker, f"unknown value {value!r}")
    return value


def extract_assessment(raw: str) -> tuple[Complexity, tuple[str, ...]]:
    complexity = Complexity(_choice(raw, _COMPLEXITY_RE, "COMPLEXITY", _COMPLEXITIES))
    notes_match = _NOTES_RE.search(raw)
    if not notes_match:
        raise FormatError("NOTES")
    # Bullets are the consecutive "- item" lines directly below the marker.
    lines_after = raw[notes_match.end():].split("\n")[1:]
    points = []
    for line in lines_after:
        bullet = _BULLET_RE.match(line)
        if not bullet:
            break
        if point := bullet.group(1).strip():
            points.append(point)
    return complexity, tuple(points)


def extract_solution(raw: str, kind: TaskKind) -> Answer:
    """The text after the last ANSWER: marker; raises FormatError if the
    marker is absent or empty."""
    return Answer.from_raw(_last_answer(raw), kind)


def extract_verdict(raw: str) -> Verdict:
    return Verdict(_choice(raw, _VERDICT_RE, "VERDICT", _VERDICTS))


def extract_presentation(raw: str, kind: TaskKind) -> tuple[Answer, str]:
    """Answer plus the one-line rationale; a missing RATIONALE line yields an
    empty rationale rather than an error."""
    answer = Answer.from_raw(_last_answer(raw), kind)
    m = _RATIONALE_RE.search(raw)
    rationale = m.group(1) if m else ""
    return answer, rationale


def extract_deliberation(raw: str, kind: TaskKind) -> tuple[Answer, bool]:
    """The reply's ANSWER, and whether its POSITION claims a change. The claim
    is not checked against the answer: the engine takes the ANSWER either way."""
    position = _choice(raw, _POSITION_RE, "POSITION", POSITIONS)
    return Answer.from_raw(_last_answer(raw), kind), position == "change"


def _last_answer(raw: str) -> str:
    matches = _ANSWER_RE.findall(raw)
    if not matches:
        raise FormatError("ANSWER")
    text = matches[-1]
    if not text:
        raise FormatError("ANSWER", "marker present but empty")
    return text
