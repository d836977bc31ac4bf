"""Domain types for tables, contexts, tasks, and answers.

Also home to the canonical table flattening used in every prompt and the
answer normalization used for votes and scoring. All types are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional


class AnswerMode(str, Enum):
    QA_FREEFORM = "qa_freeform"
    FACT_VERIFY_3WAY = "fact_verify_3way"
    SQL_DENOTATION = "sql_denotation"


@dataclass(frozen=True)
class TaskKind:
    """What shape of answer a task expects.

    ``label_set`` is non-empty exactly when ``mode`` is FACT_VERIFY_3WAY;
    labels are stored in canonical (lowercase) form.
    """

    mode: AnswerMode
    label_set: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        labels = tuple(lbl.strip().lower() for lbl in self.label_set)
        object.__setattr__(self, "label_set", labels)
        if self.mode is AnswerMode.FACT_VERIFY_3WAY:
            if not labels:
                raise ValueError("FACT_VERIFY_3WAY requires a label set")
        elif labels:
            raise ValueError(f"{self.mode.value} does not take a label set")

    @classmethod
    def qa(cls) -> "TaskKind":
        return cls(AnswerMode.QA_FREEFORM)

    @classmethod
    def fact_verify(cls, labels: Iterable[str]) -> "TaskKind":
        return cls(AnswerMode.FACT_VERIFY_3WAY, tuple(labels))

    @classmethod
    def sql_denotation(cls) -> "TaskKind":
        return cls(AnswerMode.SQL_DENOTATION)


def items_of(value: object, what: str) -> list | tuple:
    """``value``, a field that holds a sequence. Anything but a list or tuple
    there is a ValueError: a string would split into one item per character,
    and an object would read as its keys."""
    if not isinstance(value, (list, tuple)):
        shape = {str: "string", dict: "object"}.get(type(value), type(value).__name__)
        raise ValueError(f"{what} must be a list, not the {shape} {value!r}")
    return value


_LINE_BREAK_RE = re.compile(r"\r\n?|\n")


def _one_line(texts: tuple[str, ...]) -> tuple[str, ...]:
    """``texts`` with each CRLF, CR or LF turned into one space."""
    joined = "".join(texts)
    if "\n" not in joined and "\r" not in joined:
        return texts
    return tuple(_LINE_BREAK_RE.sub(" ", t) for t in texts)


@dataclass(frozen=True)
class Table:
    """A relational table: headers plus row-major cells.

    Rows shorter than the header are padded with empty strings at
    construction; rows longer than the header are rejected (cell values are
    never truncated). A line break inside a header, cell or caption becomes
    one space, so each row stays one line of the flattened table.
    """

    headers: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    caption: Optional[str] = None

    def __post_init__(self) -> None:
        headers = _one_line(tuple(str(h) for h in items_of(self.headers, "header")))
        if not headers:
            raise ValueError("table must have at least one header")
        width = len(headers)
        padded = []
        for i, row in enumerate(items_of(self.rows, "rows")):
            cells = _one_line(tuple(str(c) for c in items_of(row, "each row")))
            if len(cells) > width:
                raise ValueError(f"row {i} has {len(cells)} cells, header has {width}")
            if len(cells) < width:
                cells = cells + ("",) * (width - len(cells))
            padded.append(cells)
        object.__setattr__(self, "headers", headers)
        object.__setattr__(self, "rows", tuple(padded))
        if self.caption is not None:
            object.__setattr__(self, "caption", _one_line((str(self.caption),))[0])


@dataclass(frozen=True)
class ContextPassages:
    """Ordered text blocks surrounding a table; may be empty."""

    passages: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        passages = items_of(self.passages, "passages")
        object.__setattr__(self, "passages", tuple(str(p) for p in passages))

    def __len__(self) -> int:
        return len(self.passages)


@dataclass(frozen=True)
class Answer:
    """A model answer: the raw extracted text plus its canonical form."""

    raw: str
    normalized: str

    @classmethod
    def from_raw(cls, raw: str, kind: TaskKind) -> "Answer":
        return cls(raw=raw, normalized=normalize_answer(raw, kind))


@dataclass(frozen=True)
class FeverousEvidence:
    """Retrieved evidence ids plus the alternative gold evidence sets."""

    retrieved_ids: frozenset[str]
    gold_sets: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "retrieved_ids", frozenset(str(i) for i in self.retrieved_ids))
        object.__setattr__(
            self, "gold_sets",
            tuple(frozenset(str(i) for i in s) for s in self.gold_sets),
        )
        if any(not i for i in self.retrieved_ids):
            raise ValueError("retrieved evidence ids must be non-empty strings")
        if any(not i for s in self.gold_sets for i in s):
            raise ValueError("gold evidence ids must be non-empty strings")

    @property
    def correct(self) -> bool:
        """True when the retrieved ids cover at least one gold evidence set."""
        return any(self.retrieved_ids >= gold for gold in self.gold_sets)


@dataclass(frozen=True)
class TaskInstance:
    """One benchmark item (or ad-hoc query): table, context, query, kind.

    ``query`` is the question or claim text, non-empty after trimming.
    ``gold`` is present for benchmark items and absent for ad-hoc queries.
    ``evidence`` is set only for items carrying retrieved/gold evidence ids.
    """

    id: str
    table: Table
    context: ContextPassages
    query: str
    kind: TaskKind
    gold: Optional[Answer] = None
    evidence: Optional[FeverousEvidence] = None

    def __post_init__(self) -> None:
        if not self.query.strip():
            raise ValueError("query text is empty")


# --- flattening grammar -----------------------------------------------------
#
# Optional line   Caption: <caption>
# Header line     h1 | h2 | ... | hn
# Row lines       c1 | c2 | ... | cn
# Cells escape "|" as "\|".
# If passages exist: one blank line, then "[P1] ...", "[P2] ...".
# Not injective (see parse_flattened): an empty single-column header or row,
# and a caption-less table whose first header starts with "Caption: ".

_CELL_SEP = " | "
_PASSAGE_RE = re.compile(r"^\[P(\d+)\] (.*)$", re.S)


def _escape_cell(cell: str) -> str:
    return cell.replace("|", "\\|")


def _unescape_cell(cell: str) -> str:
    return cell.replace("\\|", "|")


def flatten_table(table: Table, context: ContextPassages) -> str:
    """Render a table (and optional passages) to the canonical prompt text.

    The rendering is deterministic: the same input always yields
    byte-identical output.
    """
    lines = []
    if table.caption is not None:
        lines.append(f"Caption: {table.caption}")
    lines.append(_CELL_SEP.join(_escape_cell(h) for h in table.headers))
    for row in table.rows:
        lines.append(_CELL_SEP.join(_escape_cell(c) for c in row))
    if context.passages:
        lines.append("")
        for i, passage in enumerate(context.passages, start=1):
            lines.append(f"[P{i}] {passage}")
    return "\n".join(lines)


def parse_flattened(text: str) -> tuple[Table, ContextPassages]:
    """Inverse of :func:`flatten_table` for input files in the same grammar.

    Two limitations of the grammar itself: a single-column table whose header
    or a row is the empty string renders as an empty line, read as the passage
    separator; and a caption-less table whose first header starts with
    "Caption: " renders as a captioned one, read back with its header line as
    the caption and its first row as the header.
    """
    lines = text.split("\n")
    caption: Optional[str] = None
    if lines and lines[0].startswith("Caption: "):
        caption = lines[0][len("Caption: "):]
        lines = lines[1:]
    if not lines or not lines[0]:
        raise ValueError("flattened table is missing a header line")
    headers = tuple(_unescape_cell(c) for c in lines[0].split(_CELL_SEP))
    rows = []
    passages = []
    i = 1
    while i < len(lines) and lines[i] != "":
        rows.append(tuple(_unescape_cell(c) for c in lines[i].split(_CELL_SEP)))
        i += 1
    if i < len(lines):  # blank separator, then passages
        for line in lines[i + 1:]:
            m = _PASSAGE_RE.match(line)
            if not m:
                raise ValueError(f"malformed passage line: {line!r}")
            passages.append(m.group(2))
    return Table(headers=headers, rows=tuple(rows), caption=caption), ContextPassages(tuple(passages))


# --- answer normalization ----------------------------------------------------

_ARTICLES = frozenset({"a", "an", "the"})
_THOUSANDS_RE = re.compile(r"^[+-]?\d{1,3}(?:,\d{3})+(?:\.\d+)?$")
_TRAILING_ZERO_RE = re.compile(r"^[+-]?\d+\.0+$")
_WS_RE = re.compile(r"\s+")


def _strip_quotes(text: str) -> str:
    # Repeat to a fixpoint so normalization stays idempotent on nested quotes.
    while len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
        text = text[1:-1].strip()
    return text


def _normalize_numeric_token(token: str) -> str:
    if _THOUSANDS_RE.match(token):
        token = token.replace(",", "")
    if _TRAILING_ZERO_RE.match(token):
        token = token.split(".", 1)[0]
    return token


def normalize_answer(raw: str, kind: TaskKind) -> str:
    """Reduce an answer to its canonical comparison form.

    Applies, in order: trim, lowercase, strip surrounding quotes, collapse
    whitespace, drop articles (free-form QA only), and normalize numeric tokens
    ("1,000" -> "1000", "5.0" -> "5"). Idempotent for every kind. A
    verification label in any casing normalizes to its canonical form. An
    answer outside the label set is returned normalized all the same, not
    rejected; callers that care compare it against ``kind.label_set``.
    """
    text = raw.strip().lower()
    text = _strip_quotes(text)
    text = _WS_RE.sub(" ", text).strip()
    tokens = text.split(" ") if text else []
    if kind.mode is AnswerMode.QA_FREEFORM:
        tokens = [t for t in tokens if t not in _ARTICLES]
    tokens = [_normalize_numeric_token(t) for t in tokens]
    return " ".join(tokens)
