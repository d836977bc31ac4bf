from __future__ import annotations

import json

import pytest

from tablepanel.datasets import (
    DatasetKind,
    FeverousEvidence,
    ParseError,
    fixture,
    fixture_path,
    load,
)
from tablepanel.deliberation import DeliberationTrace
from tablepanel.tables import AnswerMode, UnknownLabel


class TestFixtures:
    @pytest.mark.parametrize("kind", list(DatasetKind))
    def test_each_fixture_has_ten_items(self, kind):
        items = list(fixture(kind))
        assert len(items) == 10
        assert all(item.gold is not None for item in items)
        assert all(item.table.headers for item in items)

    def test_limit(self):
        assert len(list(fixture(DatasetKind.TATQA, limit=3))) == 3

    def test_tatqa_items_are_freeform_with_context(self):
        items = list(fixture(DatasetKind.TATQA))
        assert all(i.kind.mode is AnswerMode.QA_FREEFORM for i in items)
        assert all(len(i.context) > 0 for i in items)

    def test_semtabfacts_labels_within_set(self):
        items = list(fixture(DatasetKind.SEMTABFACTS))
        for item in items:
            assert item.kind.mode is AnswerMode.FACT_VERIFY_3WAY
            assert item.gold.normalized in {"entailed", "refuted", "unknown"}

    def test_wikisql_denotations(self):
        items = list(fixture(DatasetKind.WIKISQL))
        assert all(i.kind.mode is AnswerMode.SQL_DENOTATION for i in items)
        multi = [i for i in items if "," in i.gold.raw]
        assert multi, "fixture should include multi-value denotations"

    def test_feverous_items_carry_evidence(self):
        items = list(fixture(DatasetKind.FEVEROUS))
        for item in items:
            assert item.evidence is not None
            assert item.gold.normalized in {"supports", "refutes", "nei"}
        flags = [i.evidence.correct for i in items]
        assert flags.count(False) == 2  # two retrieval misses built in

    def test_loading_twice_yields_identical_sequences(self):
        for kind in DatasetKind:
            first = list(fixture(kind))
            second = list(fixture(kind))
            assert first == second

    def test_ids_unique(self):
        for kind in DatasetKind:
            ids = [i.id for i in fixture(kind)]
            assert len(set(ids)) == len(ids)


class TestLoaderErrors:
    def test_malformed_jsonl_line_reports_line_number(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x1", "question": "q", "table_id": "t", "denotation": ["1"]}\n{oops\n',
                       encoding="utf-8")
        tables = tmp_path / "bad.tables.jsonl"
        tables.write_text('{"id": "t", "header": ["a"], "rows": [["1"]]}\n', encoding="utf-8")
        with pytest.raises(ParseError) as err:
            list(load(DatasetKind.WIKISQL, bad))
        assert err.value.line == 2

    def test_wikisql_unknown_table_id(self, tmp_path):
        data = tmp_path / "w.jsonl"
        data.write_text('{"id": "x1", "question": "q", "table_id": "missing", "denotation": ["1"]}\n',
                        encoding="utf-8")
        (tmp_path / "w.tables.jsonl").write_text('{"id": "t", "header": ["a"], "rows": []}\n',
                                                 encoding="utf-8")
        with pytest.raises(ParseError):
            list(load(DatasetKind.WIKISQL, data))

    def test_wikisql_missing_tables_file(self, tmp_path):
        data = tmp_path / "w.jsonl"
        data.write_text("{}\n", encoding="utf-8")
        with pytest.raises(FileNotFoundError):
            list(load(DatasetKind.WIKISQL, data))

    def test_semtabfacts_unknown_label(self, tmp_path):
        doc = tmp_path / "s.xml"
        doc.write_text(
            "<corpus><table id='t'><header><cell>A</cell></header>"
            "<statement id='s1' label='maybe'>claim</statement></table></corpus>",
            encoding="utf-8",
        )
        with pytest.raises(UnknownLabel):
            list(load(DatasetKind.SEMTABFACTS, doc))

    def test_semtabfacts_invalid_xml(self, tmp_path):
        doc = tmp_path / "s.xml"
        doc.write_text("<corpus><table></corpus>", encoding="utf-8")
        with pytest.raises(ParseError):
            list(load(DatasetKind.SEMTABFACTS, doc))

    def test_tatqa_non_finite_answer_loads_as_text(self, tmp_path):
        doc = tmp_path / "t.json"
        questions = [{"uid": f"q{i}", "question": "How much?", "answer": value}
                     for i, value in enumerate((float("inf"), float("nan"), 5.0))]
        doc.write_text(json.dumps([{"table": {"table": [["a"], ["1"]]}, "questions": questions}]),
                       encoding="utf-8")
        assert [t.gold.raw for t in load(DatasetKind.TATQA, doc)] == ["inf", "nan", "5"]

    def test_tatqa_top_level_must_be_array(self, tmp_path):
        doc = tmp_path / "t.json"
        doc.write_text('{"not": "a list"}', encoding="utf-8")
        with pytest.raises(ParseError):
            list(load(DatasetKind.TATQA, doc))

    def test_feverous_requires_retrieved_companion_entry(self, tmp_path):
        data = tmp_path / "f.jsonl"
        record = {
            "id": "f1", "claim": "c", "label": "SUPPORTS",
            "table": {"header": ["A"], "rows": [["1"]]},
            "sentences": [], "gold_evidence": [["e1"]],
        }
        data.write_text(json.dumps(record) + "\n", encoding="utf-8")
        (tmp_path / "f.retrieved.jsonl").write_text(
            '{"id": "other", "retrieved": ["e1"]}\n', encoding="utf-8")
        with pytest.raises(ParseError):
            list(load(DatasetKind.FEVEROUS, data))

    def test_feverous_label_aliases(self, tmp_path):
        data = tmp_path / "f.jsonl"
        records = [
            {"id": "f1", "claim": "c1", "label": "NOT ENOUGH INFO",
             "table": {"header": ["A"], "rows": []}, "sentences": [],
             "gold_evidence": [[]]},
            {"id": "f2", "claim": "c2", "label": "Refutes",
             "table": {"header": ["A"], "rows": []}, "sentences": [],
             "gold_evidence": [["e"]]},
        ]
        data.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
        (tmp_path / "f.retrieved.jsonl").write_text(
            '{"id": "f1", "retrieved": ["e"]}\n{"id": "f2", "retrieved": ["e"]}\n',
            encoding="utf-8")
        items = list(load(DatasetKind.FEVEROUS, data))
        assert [i.gold.normalized for i in items] == ["nei", "refutes"]


class TestFeverousEvidence:
    def test_correct_when_any_gold_set_covered(self):
        ev = FeverousEvidence(retrieved_ids={"a", "b"},
                              gold_sets=({"a", "c"}, {"b"}))
        assert ev.correct

    def test_incorrect_when_no_gold_set_covered(self):
        ev = FeverousEvidence(retrieved_ids={"a"}, gold_sets=({"a", "c"}, {"b"}))
        assert not ev.correct

    def test_empty_gold_set_trivially_covered(self):
        ev = FeverousEvidence(retrieved_ids={"x"}, gold_sets=(frozenset(),))
        assert ev.correct

    def test_no_gold_sets_never_covered(self):
        ev = FeverousEvidence(retrieved_ids={"x"}, gold_sets=())
        assert not ev.correct


class TestStreaming:
    def test_loader_is_lazy(self):
        stream = fixture(DatasetKind.TATQA)
        first = next(stream)
        assert first.id == "tatqa-01"
        # remaining items still pending
        rest = list(stream)
        assert len(rest) == 9

    def test_fixture_paths_exist(self):
        for kind in DatasetKind:
            assert fixture_path(kind).exists()


class TestTraceCompatibility:
    def test_fixture_items_survive_trace_serialization(self):
        # Final answers from any fixture item embed into a trace line and back.
        for kind in DatasetKind:
            item = next(iter(fixture(kind)))
            trace = DeliberationTrace(task_id=item.id, config_digest="x",
                                      final=item.gold, llm_calls=0,
                                      outcome="UNANIMOUS_INITIAL")
            line = trace.to_json_line()
            restored = DeliberationTrace.from_json_dict(json.loads(line))
            assert restored.final == item.gold
