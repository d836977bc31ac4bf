from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablepanel.metrics import (
    MetricReport,
    Prediction,
    denotation_accuracy,
    exact_match,
    feverous_score,
    micro_f1_3way,
    score_run,
    token_f1,
)
from tablepanel.tables import Answer, TaskKind

from conftest import make_task

QA = TaskKind.qa()
SQL = TaskKind.sql_denotation()
FACT = TaskKind.fact_verify(("entailed", "refuted", "unknown"))


def qa(text: str) -> Answer:
    return Answer.from_raw(text, QA)


def sql(text: str) -> Answer:
    return Answer.from_raw(text, SQL)


class TestExactMatch:
    def test_equal(self):
        assert exact_match(qa("100"), qa("100")) == 1

    def test_numeric_normalization_applies(self):
        assert exact_match(qa("1,000"), qa("1000")) == 1

    def test_different(self):
        assert exact_match(qa("100"), qa("120")) == 0


class TestTokenF1:
    def test_worked_example(self):
        # P = 2/3, R = 1 -> F1 = 0.8
        assert token_f1(qa("net income 2019"), qa("net income")) == pytest.approx(0.8)

    def test_identical_strings(self):
        assert token_f1(qa("alpha beta"), qa("alpha beta")) == 1.0

    def test_disjoint(self):
        assert token_f1(qa("alpha"), qa("beta")) == 0.0

    def test_both_empty(self):
        assert token_f1(qa("the"), qa("an")) == 1.0  # both normalize to ""

    def test_exactly_one_empty(self):
        assert token_f1(qa("the"), qa("value")) == 0.0

    def test_multiset_semantics(self):
        # duplicate tokens are not double-counted
        assert token_f1(qa("x x"), qa("x")) == pytest.approx(2 * (1 / 2) * 1 / (1 / 2 + 1))

    @settings(max_examples=200)
    @given(pred=st.text(max_size=25), gold=st.text(max_size=25))
    def test_f1_at_least_em(self, pred, gold):
        p, g = qa(pred), qa(gold)
        assert token_f1(p, g) >= exact_match(p, g) - 1e-12


class TestDenotationAccuracy:
    def test_all_correct(self):
        preds = [sql("1"), sql("2")]
        assert denotation_accuracy(preds, preds) == 1.0

    def test_order_insensitive_multisets(self):
        assert denotation_accuracy([sql("b, a")], [sql("a, b")]) == 1.0

    def test_multiset_not_set(self):
        assert denotation_accuracy([sql("a, a, b")], [sql("a, b, b")]) == 0.0

    def test_numeric_values_normalized(self):
        assert denotation_accuracy([sql("5.0, 1,000")], [sql("5, 1000")]) == 1.0

    def test_hand_count(self):
        preds = [sql(str(i)) for i in range(10)]
        golds = [sql(str(i if i < 7 else 99)) for i in range(10)]
        assert denotation_accuracy(preds, golds) == pytest.approx(0.7)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="1 predictions vs 0 golds"):
            denotation_accuracy([sql("1")], [])


LABELS = ("entailed", "refuted", "unknown")


class TestMicroF1:
    def test_all_correct(self):
        assert micro_f1_3way(["entailed"] * 4, ["entailed"] * 4, LABELS) == 1.0

    def test_hand_count(self):
        golds = ["entailed"] * 5 + ["refuted"] * 3 + ["unknown"] * 2
        preds = list(golds)
        preds[0] = "refuted"
        preds[5] = "unknown"
        preds[8] = "entailed"
        # 7 of 10 correct; pooled TP=7, FP=3, FN=3 -> P=R=F1=0.7
        assert micro_f1_3way(preds, golds, LABELS) == pytest.approx(0.7)

    def test_total_miss(self):
        assert micro_f1_3way(["unknown"] * 3, ["entailed"] * 3, LABELS) == 0.0

    def test_gold_outside_label_set_raises(self):
        with pytest.raises(ValueError, match="gold label 'maybe' not in"):
            micro_f1_3way(["entailed"], ["maybe"], LABELS)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="2 predictions vs 1 golds"):
            micro_f1_3way(["entailed", "refuted"], ["entailed"], LABELS)

    def test_stray_prediction_counts_as_wrong(self):
        assert micro_f1_3way(["junk", "entailed"], ["entailed", "entailed"], LABELS) == \
            pytest.approx(0.5)

    def test_equals_accuracy_on_random_single_label_vectors(self):
        rng = random.Random(0)
        for _ in range(300):
            n = rng.randint(1, 40)
            golds = [rng.choice(LABELS) for _ in range(n)]
            preds = [rng.choice(LABELS) for _ in range(n)]
            accuracy = sum(p == g for p, g in zip(preds, golds)) / n
            assert micro_f1_3way(preds, golds, LABELS) == accuracy

    def test_returns_the_exact_hit_share(self):
        # 2 of 10 right: 2PR/(P+R) over pooled counts rounds to 0.20000000000000004.
        assert micro_f1_3way(["unknown"] * 2 + ["entailed"] * 8, ["unknown"] * 10, LABELS) == 0.2


def fact(label: str) -> Answer:
    return Answer.from_raw(label, FACT)


class TestFeverousScore:
    def test_worked_example(self):
        # 3 of 4 labels right, of which 2 have correct evidence -> (0.75, 0.5)
        golds = [fact("entailed")] * 4
        preds = [
            Prediction("1", fact("entailed"), evidence_correct=True),
            Prediction("2", fact("entailed"), evidence_correct=True),
            Prediction("3", fact("entailed"), evidence_correct=False),
            Prediction("4", fact("refuted"), evidence_correct=True),
        ]
        assert feverous_score(preds, golds) == (pytest.approx(0.75), pytest.approx(0.5))

    def test_label_right_evidence_wrong_counts_for_label_acc_only(self):
        golds = [fact("entailed")]
        preds = [Prediction("1", fact("entailed"), evidence_correct=False)]
        label_acc, score = feverous_score(preds, golds)
        assert (label_acc, score) == (1.0, 0.0)

    def test_perfect(self):
        golds = [fact("refuted")] * 3
        preds = [Prediction(str(i), fact("refuted"), evidence_correct=True) for i in range(3)]
        assert feverous_score(preds, golds) == (1.0, 1.0)

    def test_missing_flag_raises(self):
        with pytest.raises(ValueError, match="prediction 1 lacks evidence_correct"):
            feverous_score([Prediction("1", fact("refuted"))], [fact("refuted")])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="1 predictions vs 0 golds"):
            feverous_score([Prediction("1", fact("refuted"), evidence_correct=True)], [])

    def test_score_never_exceeds_label_acc(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 20)
            golds = [fact(rng.choice(LABELS)) for _ in range(n)]
            preds = [Prediction(str(i), fact(rng.choice(LABELS)),
                                evidence_correct=rng.random() < 0.5) for i in range(n)]
            label_acc, score = feverous_score(preds, golds)
            assert score <= label_acc + 1e-12


class TestScoreRun:
    def test_qa_dispatch(self):
        tasks = [make_task(task_id=f"t{i}") for i in range(3)]
        preds = [Prediction(t.id, t.gold) for t in tasks]
        report = score_run(preds, tasks)
        assert report.em == 1.0 and report.f1 == 1.0
        assert report.denotation_acc is None
        assert report.n == 3

    def test_permutation_invariance(self):
        tasks = [make_task(task_id=f"t{i}") for i in range(4)]
        preds = [Prediction(t.id, qa("B-1") if i % 2 else qa("C-2"))
                 for i, t in enumerate(tasks)]
        a = score_run(preds, tasks)
        b = score_run(list(reversed(preds)), tasks)
        assert a == b

    def test_qa_f1_is_identical_under_any_joint_shuffle(self):
        rng = random.Random(30)
        words = ["net", "income", "2019", "revenue", "total", "cost", "of", "sales"]
        tasks, preds = [], []
        for i in range(30):
            gold = " ".join(rng.choices(words, k=rng.randint(1, 6)))
            task = replace(make_task(task_id=f"t{i}"), gold=qa(gold))
            tasks.append(task)
            preds.append(Prediction(task.id, qa(" ".join(rng.choices(words, k=rng.randint(1, 6))))))
        pairs = list(zip(preds, tasks))
        f1s = set()
        for _ in range(200):
            rng.shuffle(pairs)
            f1s.add(score_run([p for p, _ in pairs], [t for _, t in pairs]).f1)
        assert len(f1s) == 1, sorted(f1s)

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError, match="empty runs are rejected"):
            score_run([], [])

    def test_mixed_kinds_rejected(self):
        tasks = [make_task(task_id="a"), make_task(kind=FACT, task_id="b")]
        preds = [Prediction(t.id, t.gold) for t in tasks]
        with pytest.raises(ValueError, match="one report per kind"):
            score_run(preds, tasks)

    def test_unknown_prediction_id_rejected(self):
        tasks = [make_task(task_id="a")]
        with pytest.raises(ValueError, match="no prediction for task ids"):
            score_run([Prediction("zzz", qa("B-1"))], tasks)

    def test_length_mismatch_rejected(self):
        tasks = [make_task(task_id="a"), make_task(task_id="b")]
        with pytest.raises(ValueError, match="1 predictions vs 2 tasks"):
            score_run([Prediction("a", qa("B-1"))], tasks)

    def test_duplicate_prediction_ids_rejected(self):
        tasks = [make_task(task_id="a"), make_task(task_id="b")]
        with pytest.raises(ValueError, match="duplicate prediction ids"):
            score_run([Prediction("a", qa("B-1")), Prediction("a", qa("C-2"))], tasks)

    def test_task_without_gold_rejected(self):
        tasks = [make_task(task_id="a"), replace(make_task(task_id="b"), gold=None)]
        with pytest.raises(ValueError, match="without gold"):
            score_run([Prediction(t.id, qa("B-1")) for t in tasks], tasks)

    def test_fact_without_evidence_uses_micro_f1(self):
        tasks = [make_task(kind=FACT, task_id=f"t{i}") for i in range(2)]
        preds = [Prediction(t.id, t.gold) for t in tasks]
        report = score_run(preds, tasks)
        assert report.micro_f1 == 1.0
        assert report.label_acc is None

    def test_fact_with_some_evidence_flags_missing_raises(self):
        tasks = [make_task(kind=FACT, task_id=f"t{i}") for i in range(3)]
        preds = [Prediction(t.id, t.gold, evidence_correct=True if i else None)
                 for i, t in enumerate(tasks)]
        with pytest.raises(ValueError, match="prediction t0 lacks evidence_correct"):
            score_run(preds, tasks)

    def test_report_serialization_drops_absent_fields(self):
        report = MetricReport(kind="qa_freeform", n=2, em=0.5, f1=0.75)
        data = report.to_json_dict()
        assert data == {"kind": "qa_freeform", "n": 2, "em": 0.5, "f1": 0.75}
