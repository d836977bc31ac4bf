"""Regex parsing of model output into typed stage results.

The marker grammar here (COMPLEXITY:, NOTES:, ANSWER:, VERDICT:, POSITION:,
RATIONALE:) is the same one embedded in the stage prompts, so prompts and
extractors cannot drift apart. Markers are matched case-insensitively, one
per line; the last ANSWER line wins because models often restate their
answer. Every extractor either returns a value or raises FormatError; all
are pure functions of the raw text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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


@dataclass(frozen=True)
class AnalyticalNotes:
    points: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        points = tuple(p for p in (s.strip() for s in self.points) if p)
        object.__setattr__(self, "points", points)


_COMPLEXITY_RE = re.compile(r"^[ \t]*COMPLEXITY:[ \t]*(.+?)[ \t]*$", re.I | re.M)
_NOTES_RE = re.compile(r"^[ \t]*NOTES:[ \t]*$", re.I | re.M)
_ANSWER_RE = re.compile(r"^[ \t]*ANSWER:[ \t]*(.*?)[ \t]*$", re.I | re.M)
_VERDICT_RE = re.compile(r"^[ \t]*VERDICT:[ \t]*(.+?)[ \t]*$", re.I | re.M)
_POSITION_RE = re.compile(r"^[ \t]*POSITION:[ \t]*(.+?)[ \t]*$", re.I | re.M)
_RATIONALE_RE = re.compile(r"^[ \t]*RATIONALE:[ \t]*(.*?)[ \t]*$", re.I | re.M)
_BULLET_RE = re.compile(r"^[ \t]*-[ \t]*(.*?)[ \t]*$")


def extract_assessment(raw: str) -> tuple[Complexity, AnalyticalNotes]:
    m = _COMPLEXITY_RE.search(raw)
    if not m:
        raise FormatError("COMPLEXITY")
    value = m.group(1).strip().lower()
    try:
        complexity = Complexity(value)
    except ValueError:
        raise FormatError("COMPLEXITY", f"unknown value {value!r}")

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
        if bullet.group(1):
            points.append(bullet.group(1))
    return complexity, AnalyticalNotes(tuple(points))


def extract_solution(raw: str, kind: TaskKind) -> Answer:
    """The text after the last ANSWER: marker; raises FormatError if the
    marker is absent or empty."""
    text = _last_answer(raw)
    return Answer.from_raw(text, kind)


def extract_verdict(raw: str) -> Verdict:
    m = _VERDICT_RE.search(raw)
    if not m:
        raise FormatError("VERDICT")
    value = m.group(1).strip().lower()
    try:
        return Verdict(value)
    except ValueError:
        raise FormatError("VERDICT", f"unknown value {value!r}")


def extract_presentation(raw: str, kind: TaskKind) -> tuple[Answer, str]:
    """Answer plus the one-line rationale; a missing RATIONALE line yields an
    empty rationale rather than an error."""
    answer = Answer.from_raw(_last_answer(raw), kind)
    m = _RATIONALE_RE.search(raw)
    rationale = m.group(1) if m else ""
    return answer, rationale


def extract_deliberation(raw: str, kind: TaskKind) -> tuple[Answer, bool]:
    m = _POSITION_RE.search(raw)
    if not m:
        raise FormatError("POSITION")
    value = m.group(1).strip().lower()
    if value not in ("keep", "change"):
        raise FormatError("POSITION", f"unknown value {value!r}")
    answer = Answer.from_raw(_last_answer(raw), kind)
    return answer, value == "change"


def _last_answer(raw: str) -> str:
    matches = _ANSWER_RE.findall(raw)
    if not matches:
        raise FormatError("ANSWER")
    text = matches[-1]
    if not text:
        raise FormatError("ANSWER", "marker present but empty")
    return text
