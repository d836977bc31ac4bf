"""Benchmark loaders: map the four corpus file formats into task streams.

All loaders are streaming generators (memory independent of file size) and
stateless: loading the same path twice yields identical sequences. Each
dataset also ships a bundled ten-item fixture, schema-identical to real
corpus files, used by the test suite and for smoke runs.

File formats (also documented in the README):

- TATQA: a JSON array of blocks ``{"table": {"table": [[...]]},
  "paragraphs": [{"text": ...}], "questions": [{"uid", "question",
  "answer"}]}``; the table's first row is the header row.
- SEMTABFACTS: one XML file: ``<corpus><table id=..><caption>..</caption>
  <header><cell>..</cell>..</header><row><cell>..</cell>..</row>..
  <statement id=.. label=..>claim</statement>..</table></corpus>``.
- WIKISQL: line-delimited JSON ``{"id", "question", "table_id",
  "denotation": [..]}`` plus a sibling table file ``<stem>.tables.jsonl``
  of ``{"id", "header", "rows", "caption"?}``.
- FEVEROUS: line-delimited JSON ``{"id", "claim", "label", "table":
  {"header", "rows", "caption"?}, "sentences": [..], "gold_evidence":
  [[id, ..], ..]}`` plus a sibling retrieved-evidence file
  ``<stem>.retrieved.jsonl`` of ``{"id", "retrieved": [id, ..]}``.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterator, Optional

from .tables import (
    Answer,
    ContextPassages,
    Query,
    Table,
    TaskInstance,
    TaskKind,
    UnknownLabel,
)


class DatasetKind(str, Enum):
    TATQA = "tatqa"
    SEMTABFACTS = "semtabfacts"
    WIKISQL = "wikisql"
    FEVEROUS = "feverous"


SEMTABFACTS_LABELS = ("entailed", "refuted", "unknown")
FEVEROUS_LABELS = ("supports", "refutes", "nei")

_FEVEROUS_ALIASES = {
    "supports": "supports",
    "refutes": "refutes",
    "nei": "nei",
    "not enough info": "nei",
    "not enough information": "nei",
}


class ParseError(ValueError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


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


def load(kind: DatasetKind, path: str | Path, limit: Optional[int] = None) -> Iterator[TaskInstance]:
    """Stream task instances from a corpus file in the kind's declared format."""
    loaders = {
        DatasetKind.TATQA: _load_tatqa,
        DatasetKind.SEMTABFACTS: _load_semtabfacts,
        DatasetKind.WIKISQL: _load_wikisql,
        DatasetKind.FEVEROUS: _load_feverous,
    }
    stream = loaders[kind](Path(path))
    for i, instance in enumerate(stream):
        if limit is not None and i >= limit:
            return
        yield instance


_FIXTURE_FILES = {
    DatasetKind.TATQA: "tatqa_mini.json",
    DatasetKind.SEMTABFACTS: "semtabfacts_mini.xml",
    DatasetKind.WIKISQL: "wikisql_mini.jsonl",
    DatasetKind.FEVEROUS: "feverous_mini.jsonl",
}


def fixture_path(kind: DatasetKind) -> Path:
    return Path(str(resources.files("tablepanel") / "fixtures" / _FIXTURE_FILES[kind]))


def fixture(kind: DatasetKind, limit: Optional[int] = None) -> Iterator[TaskInstance]:
    """The bundled ten-item corpus for a kind, via the regular loader."""
    return load(kind, fixture_path(kind), limit)


def _value_to_text(value) -> str:
    if isinstance(value, list):
        return ", ".join(_value_to_text(v) for v in value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _load_tatqa(path: Path) -> Iterator[TaskInstance]:
    try:
        blocks = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"invalid JSON: {exc.msg}")
    if not isinstance(blocks, list):
        raise ParseError(1, "top-level value must be a JSON array")
    kind = TaskKind.qa()
    for i, block in enumerate(blocks, start=1):
        try:
            grid = block["table"]["table"]
            if not isinstance(grid, list) or not grid or not isinstance(grid[0], list):
                raise ValueError("table must be a non-empty list of rows")
            table = Table(headers=grid[0], rows=grid[1:])
            context = ContextPassages(tuple(
                p["text"] if isinstance(p, dict) else p for p in block.get("paragraphs", [])
            ))
            questions = list(block["questions"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(i, f"malformed block: {exc}")
        for q in questions:
            try:
                task = TaskInstance(
                    id=str(q["uid"]),
                    table=table,
                    context=context,
                    query=Query(str(q["question"])),
                    kind=kind,
                    gold=Answer.from_raw(_value_to_text(q["answer"]), kind),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(i, f"malformed question: {exc}")
            yield task


def _table_from_xml(elem: ET.Element) -> Table:
    header = elem.find("header")
    if header is None:
        raise ValueError("table element has no <header>")
    headers = tuple(c.text or "" for c in header.findall("cell"))
    rows = tuple(
        tuple(c.text or "" for c in row.findall("cell"))
        for row in elem.findall("row")
    )
    caption_elem = elem.find("caption")
    caption = caption_elem.text if caption_elem is not None else None
    return Table(headers=headers, rows=rows, caption=caption)


def _load_semtabfacts(path: Path) -> Iterator[TaskInstance]:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise ParseError(exc.position[0], f"invalid XML: {exc.msg if hasattr(exc, 'msg') else exc}")
    kind = TaskKind.fact_verify(SEMTABFACTS_LABELS)
    for i, table_elem in enumerate(root.findall("table"), start=1):
        try:
            table = _table_from_xml(table_elem)
        except ValueError as exc:
            raise ParseError(i, f"malformed table: {exc}")
        for stmt in table_elem.findall("statement"):
            sid = stmt.get("id")
            label = (stmt.get("label") or "").strip().lower()
            if sid is None or not (stmt.text or "").strip():
                raise ParseError(i, "statement needs an id attribute and text")
            if label not in SEMTABFACTS_LABELS:
                raise UnknownLabel(f"statement {sid}: label {label!r} not in {SEMTABFACTS_LABELS}")
            yield TaskInstance(
                id=sid,
                table=table,
                context=ContextPassages(),
                query=Query(stmt.text.strip()),
                kind=kind,
                gold=Answer.from_raw(label, kind),
            )


def _read_jsonl(path: Path) -> Iterator[tuple[int, dict]]:
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(lineno, f"invalid JSON: {exc.msg}")


def _sibling(path: Path, suffix: str) -> Path:
    companion = path.with_name(path.stem + suffix)
    if not companion.exists():
        raise FileNotFoundError(f"expected companion file {companion}")
    return companion


def _table_from_record(obj: dict) -> Table:
    """The table of a ``{"header", "rows", "caption"?}`` record."""
    return Table(headers=obj["header"], rows=obj["rows"], caption=obj.get("caption"))


def _load_wikisql(path: Path) -> Iterator[TaskInstance]:
    tables: dict[str, Table] = {}
    for lineno, obj in _read_jsonl(_sibling(path, ".tables.jsonl")):
        try:
            tables[str(obj["id"])] = _table_from_record(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(lineno, f"malformed table record: {exc}")
    kind = TaskKind.sql_denotation()
    for lineno, obj in _read_jsonl(path):
        try:
            table_id = str(obj["table_id"])
            if table_id not in tables:
                raise ValueError(f"unknown table_id {table_id!r}")
            task = TaskInstance(
                id=str(obj["id"]),
                table=tables[table_id],
                context=ContextPassages(),
                query=Query(str(obj["question"])),
                kind=kind,
                gold=Answer.from_raw(_value_to_text(obj["denotation"]), kind),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(lineno, f"malformed record: {exc}")
        yield task


def _load_feverous(path: Path) -> Iterator[TaskInstance]:
    retrieved: dict[str, list[str]] = {}
    for lineno, obj in _read_jsonl(_sibling(path, ".retrieved.jsonl")):
        try:
            retrieved[str(obj["id"])] = [str(x) for x in obj["retrieved"]]
        except (KeyError, TypeError) as exc:
            raise ParseError(lineno, f"malformed retrieved record: {exc}")
    kind = TaskKind.fact_verify(FEVEROUS_LABELS)
    for lineno, obj in _read_jsonl(path):
        try:
            label = _FEVEROUS_ALIASES.get(str(obj["label"]).strip().lower())
            if label is None:
                raise UnknownLabel(f"line {lineno}: label {obj['label']!r} not recognized")
            item_id = str(obj["id"])
            if item_id not in retrieved:
                raise ValueError(f"no retrieved evidence for id {item_id!r}")
            task = TaskInstance(
                id=item_id,
                table=_table_from_record(obj["table"]),
                context=ContextPassages(obj.get("sentences", ())),
                query=Query(str(obj["claim"])),
                kind=kind,
                gold=Answer.from_raw(label, kind),
                evidence=FeverousEvidence(retrieved_ids=retrieved[item_id],
                                          gold_sets=obj["gold_evidence"]),
            )
        except UnknownLabel:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(lineno, f"malformed record: {exc}")
        yield task
