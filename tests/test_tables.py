from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tablepanel.tables import (
    Answer,
    ContextPassages,
    Table,
    TaskKind,
    flatten_table,
    normalize_answer,
    parse_flattened,
)

from conftest import make_task

QA = TaskKind.qa()
SQL = TaskKind.sql_denotation()
FACT = TaskKind.fact_verify(("Entailed", "Refuted", "Unknown"))


class TestTable:
    def test_short_rows_padded_with_empty_cells(self):
        t = Table(headers=("a", "b", "c"), rows=(("1",), ("1", "2", "3")))
        assert t.rows[0] == ("1", "", "")
        assert t.rows[1] == ("1", "2", "3")

    def test_overlong_rows_rejected_never_truncated(self):
        with pytest.raises(ValueError, match="cells"):
            Table(headers=("a",), rows=(("1", "2"),))

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            Table(headers=(), rows=())

    @pytest.mark.parametrize("build", [
        lambda: Table(headers="ab", rows=()),
        lambda: Table(headers=("a",), rows="12"),
        lambda: Table(headers=("a", "b"), rows=("xy",)),
        lambda: ContextPassages("text"),
    ])
    def test_a_string_where_a_list_belongs_is_rejected(self, build):
        with pytest.raises(ValueError, match="must be a list, not the string"):
            build()

    def test_query_must_be_nonempty(self):
        with pytest.raises(ValueError, match="query text is empty"):
            make_task(query="   ")


class TestFlatten:
    def test_plain_table(self):
        t = Table(headers=("Year", "Revenue"), rows=(("2019", "100"), ("2020", "120")))
        assert flatten_table(t, ContextPassages()) == "Year | Revenue\n2019 | 100\n2020 | 120"

    def test_empty_rows_yields_header_line_only(self):
        t = Table(headers=("Year", "Revenue"), rows=())
        assert flatten_table(t, ContextPassages()) == "Year | Revenue"

    def test_passages_follow_blank_line_with_numbering(self):
        t = Table(headers=("Year", "Revenue"), rows=(("2019", "100"),))
        out = flatten_table(t, ContextPassages(("first note", "second note")))
        assert out == "Year | Revenue\n2019 | 100\n\n[P1] first note\n[P2] second note"

    def test_caption_line_comes_first(self):
        t = Table(headers=("A",), rows=(), caption="Totals")
        assert flatten_table(t, ContextPassages()) == "Caption: Totals\nA"

    def test_pipes_in_cells_are_escaped(self):
        t = Table(headers=("name",), rows=(("a | b",),))
        out = flatten_table(t, ContextPassages())
        assert out == "name\na \\| b"

    def test_line_breaks_in_cells_become_spaces(self):
        t = Table(("Item", "Note"), (("a", "line1\nline2"), ("b", "x")))
        out = flatten_table(t, ContextPassages())
        assert out == "Item | Note\na | line1 line2\nb | x"
        assert parse_flattened(out)[0] == t

    def test_crlf_and_cr_in_headers_and_caption_become_spaces(self):
        t = Table(("A\r\nB",), (("c\rd",),), caption="two\r\nlines\nhere")
        assert t.headers == ("A B",)
        assert t.rows == (("c d",),)
        assert flatten_table(t, ContextPassages()) == "Caption: two lines here\nA B\nc d"

    def test_passages_keep_their_line_breaks(self):
        t = Table(("A",), (("1",),))
        out = flatten_table(t, ContextPassages(("first\nsecond",)))
        assert out == "A\n1\n\n[P1] first\nsecond"

    def test_deterministic(self):
        t = Table(headers=("x", "y"), rows=(("1", "2"),), caption="c")
        ctx = ContextPassages(("p",))
        assert flatten_table(t, ctx) == flatten_table(t, ctx)


# Headers, cells and the caption may hold line breaks (each becomes one
# space); a passage is prose and keeps its own, so its text has none here.
_cell = st.text(
    alphabet=st.one_of(st.characters(blacklist_categories=("Cs",)), st.sampled_from("\r\n")),
    max_size=12,
)
_passage = st.text(
    alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=12,
)


class TestFlattenRoundTrip:
    @settings(max_examples=200)
    @given(
        headers=st.lists(_cell, min_size=1, max_size=4),
        rows=st.lists(st.lists(_cell, max_size=4), max_size=4),
        caption=st.one_of(st.none(), _cell),
        passages=st.lists(_passage, max_size=3),
    )
    def test_parse_inverts_flatten(self, headers, rows, caption, passages):
        table = Table(headers=tuple(headers),
                      rows=tuple(tuple(r[: len(headers)]) for r in rows),
                      caption=caption)
        ctx = ContextPassages(tuple(passages))
        flat = flatten_table(table, ctx)
        # Documented grammar limitations: a single-column table can render an
        # empty line (empty header/cell), indistinguishable from the passage
        # separator, and a caption-less table whose first header starts with
        # "Caption: " renders as a captioned one. Skip those renderings.
        table_lines = (1 if caption is not None else 0) + 1 + len(table.rows)
        assume("" not in flat.split("\n")[:table_lines])
        assume(caption is not None or not table.headers[0].startswith("Caption: "))
        parsed_table, parsed_ctx = parse_flattened(flat)
        assert parsed_table == table
        assert parsed_ctx == ctx

    def test_caption_prefixed_first_header_reads_as_a_caption(self):
        # The documented limitation, read back as documented.
        table = Table(headers=("Caption: Year", "Revenue"), rows=(("2019", "100"),))
        flat = flatten_table(table, ContextPassages())
        assert flat == "Caption: Year | Revenue\n2019 | 100"
        parsed, _ = parse_flattened(flat)
        assert parsed == Table(headers=("2019", "100"), rows=(), caption="Year | Revenue")


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,kind,expected",
        [
            ("1,000", QA, "1000"),
            ("The Net Income", QA, "net income"),
            ("REFUTED", FACT, "refuted"),
            ("  spaced   out  ", QA, "spaced out"),
            ('"quoted"', QA, "quoted"),
            ("'\"nested\"'", QA, "nested"),
            ("5.0", SQL, "5"),
            ("5.50", SQL, "5.50"),
            ("1,234,567.00", SQL, "1234567"),
            ("12,34", QA, "12,34"),  # not a thousands pattern; untouched
            ("An Apple a Day", QA, "apple day"),
            ("the", QA, ""),
        ],
    )
    def test_examples(self, raw, kind, expected):
        assert normalize_answer(raw, kind) == expected

    def test_articles_kept_outside_freeform_qa(self):
        assert normalize_answer("The Hague", SQL) == "the hague"

    def test_unmappable_label_is_kept(self):
        assert normalize_answer(' "The  Claim, 1,000 Times" ', FACT) == "the claim, 1000 times"
        assert normalize_answer("probably true", FACT) not in FACT.label_set

    def test_label_mapping_accepts_any_case(self):
        for raw in ("entailed", "ENTAILED", " Entailed "):
            assert normalize_answer(raw, FACT) == "entailed"

    @settings(max_examples=300)
    @given(raw=st.text(max_size=40), kind=st.sampled_from([QA, SQL, FACT]))
    def test_idempotent(self, raw, kind):
        once = normalize_answer(raw, kind)
        assert normalize_answer(once, kind) == once

    def test_idempotent_on_labels(self):
        once = normalize_answer("Refuted", FACT)
        assert normalize_answer(once, FACT) == once

    def test_answer_from_raw_carries_both_forms(self):
        ans = Answer.from_raw("The Net Income", QA)
        assert ans.raw == "The Net Income"
        assert ans.normalized == "net income"
