"""Per-benchmark scoring: EM and token F1, denotation accuracy, three-way
micro F1, and label accuracy plus the stricter evidence-conditioned score.

All metrics are pure functions over normalized answers. Each score is either
a hit share or a correctly rounded mean (``math.fsum``), so it is exactly the
same under any permutation of the instance list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .tables import Answer, AnswerMode, TaskInstance, TaskKind, normalize_answer


@dataclass(frozen=True)
class Prediction:
    """One scored system output. ``evidence_correct`` is set only when
    scoring evidence-conditioned fact verification."""

    task_id: str
    answer: Answer
    evidence_correct: Optional[bool] = None


# The score fields of a MetricReport, in report and table column order.
METRIC_NAMES = ("em", "f1", "denotation_acc", "micro_f1", "label_acc", "feverous_score")


@dataclass(frozen=True)
class MetricReport:
    """Scores for one run over one task kind; inapplicable fields are None."""

    kind: str
    n: int
    em: Optional[float] = None
    f1: Optional[float] = None
    denotation_acc: Optional[float] = None
    micro_f1: Optional[float] = None
    label_acc: Optional[float] = None
    feverous_score: Optional[float] = None

    def to_json_dict(self) -> dict:
        data = {"kind": self.kind, "n": self.n}
        for name in METRIC_NAMES:
            value = getattr(self, name)
            if value is not None:
                data[name] = value
        return data


def exact_match(pred: Answer, gold: Answer) -> int:
    return int(pred.normalized == gold.normalized)


def token_f1(pred: Answer, gold: Answer) -> float:
    """F1 over whitespace-token multisets of the normalized strings."""
    pred_tokens = pred.normalized.split()
    gold_tokens = gold.normalized.split()
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    overlap = 0
    remaining = {}
    for t in gold_tokens:
        remaining[t] = remaining.get(t, 0) + 1
    for t in pred_tokens:
        if remaining.get(t, 0) > 0:
            remaining[t] -= 1
            overlap += 1
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


_SQL_KIND = TaskKind.sql_denotation()


def _denotation_values(answer: Answer) -> tuple[str, ...]:
    # Multi-value denotations split on commas. Splitting the normalized form
    # lets thousands separators collapse first ("1,000" -> "1000"), then each
    # part is renormalized so "5.0" and "5" compare equal. Order is not
    # significant.
    parts = [p.strip() for p in answer.normalized.split(",")]
    values = [normalize_answer(p, _SQL_KIND) for p in parts if p.strip()]
    return tuple(sorted(values))


def denotation_accuracy(preds: Sequence[Answer], golds: Sequence[Answer]) -> float:
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions vs {len(golds)} golds")
    hits = sum(
        1 for p, g in zip(preds, golds)
        if _denotation_values(p) == _denotation_values(g)
    )
    return hits / len(preds)


def micro_f1_3way(
    preds: Sequence[str],
    golds: Sequence[str],
    label_set: Sequence[str],
) -> float:
    """Micro-averaged F1 over pooled per-class counts.

    For single-label classification every wrong prediction is one false
    positive and one false negative, so micro-F1 equals accuracy; it is
    returned as the exact hit share. Gold labels outside ``label_set`` raise
    ValueError; a stray predicted label counts as a wrong prediction.
    """
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions vs {len(golds)} golds")
    labels = {l.strip().lower() for l in label_set}
    hits = 0
    for pred, gold in zip(preds, golds):
        gold = gold.strip().lower()
        if gold not in labels:
            raise ValueError(f"gold label {gold!r} not in {sorted(labels)}")
        if pred.strip().lower() == gold:
            hits += 1
    return hits / len(preds) if preds else 0.0


def feverous_score(preds: Sequence[Prediction], golds: Sequence[Answer]) -> tuple[float, float]:
    """(label accuracy, strict score); the strict score additionally requires
    correct evidence."""
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions vs {len(golds)} golds")
    label_hits = 0
    strict_hits = 0
    for pred, gold in zip(preds, golds):
        if pred.evidence_correct is None:
            raise ValueError(f"prediction {pred.task_id} lacks evidence_correct")
        if pred.answer.normalized == gold.normalized:
            label_hits += 1
            if pred.evidence_correct:
                strict_hits += 1
    return label_hits / len(preds), strict_hits / len(preds)


def score_run(preds: Sequence[Prediction], tasks: Sequence[TaskInstance]) -> MetricReport:
    """Dispatch to the kind-appropriate metrics; predictions align with tasks
    by id and must cover exactly one task kind."""
    if not preds or not tasks:
        raise ValueError("empty runs are rejected")
    if len(preds) != len(tasks):
        raise ValueError(f"{len(preds)} predictions vs {len(tasks)} tasks")
    by_id = {p.task_id: p for p in preds}
    if len(by_id) != len(preds):
        raise ValueError("duplicate prediction ids")
    missing = [t.id for t in tasks if t.id not in by_id]
    if missing:
        raise ValueError(f"no prediction for task ids {missing[:5]}")

    modes = {t.kind.mode for t in tasks}
    if len(modes) != 1:
        raise ValueError(f"one report per kind; got {sorted(m.value for m in modes)}")
    mode = modes.pop()

    ordered = [by_id[t.id] for t in tasks]
    golds = [t.gold for t in tasks]
    if any(g is None for g in golds):
        raise ValueError("cannot score tasks without gold answers")
    n = len(tasks)

    if mode is AnswerMode.QA_FREEFORM:
        em = sum(exact_match(p.answer, g) for p, g in zip(ordered, golds)) / n
        f1 = math.fsum(token_f1(p.answer, g) for p, g in zip(ordered, golds)) / n
        return MetricReport(kind=mode.value, n=n, em=em, f1=f1)

    if mode is AnswerMode.SQL_DENOTATION:
        acc = denotation_accuracy([p.answer for p in ordered], golds)
        return MetricReport(kind=mode.value, n=n, denotation_acc=acc)

    # Three-way fact verification: evidence-conditioned when flags are
    # present; feverous_score rejects a run where only some are.
    if any(p.evidence_correct is not None for p in ordered):
        label_acc, strict = feverous_score(ordered, golds)
        return MetricReport(kind=mode.value, n=n, label_acc=label_acc, feverous_score=strict)
    label_set = tasks[0].kind.label_set
    micro = micro_f1_3way(
        [p.answer.normalized for p in ordered],
        [g.normalized for g in golds],
        label_set,
    )
    return MetricReport(kind=mode.value, n=n, micro_f1=micro)
