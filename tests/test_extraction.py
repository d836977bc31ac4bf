from __future__ import annotations

import random
import string

import pytest

from tablepanel.extraction import (
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
from tablepanel.tables import TaskKind

QA = TaskKind.qa()
FACT = TaskKind.fact_verify(("entailed", "refuted", "unknown"))


class TestAssessment:
    def test_complexity_and_bullets(self):
        raw = "COMPLEXITY: intermediate\nNOTES:\n- unit standardization"
        complexity, notes = extract_assessment(raw)
        assert complexity is Complexity.INTERMEDIATE
        assert notes.points == ("unit standardization",)

    def test_empty_notes_allowed_when_marker_present(self):
        complexity, notes = extract_assessment("COMPLEXITY: basic\nNOTES:")
        assert complexity is Complexity.BASIC
        assert notes.points == ()

    def test_missing_complexity_marker(self):
        with pytest.raises(FormatError) as err:
            extract_assessment("I think it's hard")
        assert err.value.expected_marker == "COMPLEXITY"

    def test_missing_notes_marker(self):
        with pytest.raises(FormatError) as err:
            extract_assessment("COMPLEXITY: basic")
        assert err.value.expected_marker == "NOTES"

    def test_value_outside_enumeration(self):
        with pytest.raises(FormatError):
            extract_assessment("COMPLEXITY: difficult\nNOTES:")

    def test_case_insensitive(self):
        complexity, _ = extract_assessment("complexity: COMPLEX\nnotes:\n- x")
        assert complexity is Complexity.COMPLEX

    def test_bullets_stop_at_first_non_bullet_line(self):
        raw = "COMPLEXITY: basic\nNOTES:\n- one\n- two\ndone\n- three"
        _, notes = extract_assessment(raw)
        assert notes.points == ("one", "two")

    def test_prose_before_markers_tolerated(self):
        raw = "Let me assess this.\nCOMPLEXITY: basic\nNOTES:\n- data lookup"
        complexity, notes = extract_assessment(raw)
        assert complexity is Complexity.BASIC
        assert notes.points == ("data lookup",)


class TestSolution:
    def test_answer_after_marker(self):
        assert extract_solution("reasoning first\nANSWER: 42", QA).raw == "42"

    def test_last_marker_wins(self):
        assert extract_solution("ANSWER: maybe 5\nANSWER: 5", QA).raw == "5"

    def test_missing_marker(self):
        with pytest.raises(FormatError) as err:
            extract_solution("no marker here", QA)
        assert err.value.expected_marker == "ANSWER"

    def test_empty_answer_is_format_error(self):
        with pytest.raises(FormatError):
            extract_solution("ANSWER:", QA)

    def test_unmappable_label_passes_through(self):
        answer = extract_solution("ANSWER: Probably  True", FACT)
        assert (answer.raw, answer.normalized) == ("Probably  True", "probably true")
        assert answer.normalized not in FACT.label_set

    def test_label_answer_normalized(self):
        answer = extract_solution("ANSWER: REFUTED", FACT)
        assert answer.normalized == "refuted"


class TestVerdict:
    @pytest.mark.parametrize("raw,expected", [
        ("VERDICT: validated", Verdict.VALIDATED),
        ("VERDICT: Uncertain", Verdict.UNCERTAIN),
        ("thinking...\nverdict: VALIDATED", Verdict.VALIDATED),
    ])
    def test_valid(self, raw, expected):
        assert extract_verdict(raw) is expected

    def test_out_of_enumeration(self):
        with pytest.raises(FormatError):
            extract_verdict("VERDICT: sure")

    def test_missing(self):
        with pytest.raises(FormatError):
            extract_verdict("no verdict at all")


class TestPresentation:
    def test_answer_and_rationale(self):
        answer, rationale = extract_presentation(
            "RATIONALE: row two has the max\nANSWER: B-1", QA)
        assert answer.raw == "B-1"
        assert rationale == "row two has the max"

    def test_rationale_optional(self):
        answer, rationale = extract_presentation("ANSWER: B-1", QA)
        assert answer.raw == "B-1"
        assert rationale == ""

    def test_missing_answer(self):
        with pytest.raises(FormatError):
            extract_presentation("RATIONALE: because", QA)


class TestDeliberation:
    def test_keep(self):
        answer, changed = extract_deliberation("POSITION: keep\nANSWER: Refuted", FACT)
        assert (answer.normalized, changed) == ("refuted", False)

    def test_change(self):
        answer, changed = extract_deliberation("POSITION: change\nANSWER: Entailed", FACT)
        assert (answer.normalized, changed) == ("entailed", True)

    def test_missing_position(self):
        with pytest.raises(FormatError) as err:
            extract_deliberation("ANSWER: Entailed", FACT)
        assert err.value.expected_marker == "POSITION"

    def test_position_out_of_enumeration(self):
        with pytest.raises(FormatError):
            extract_deliberation("POSITION: waver\nANSWER: x", QA)


# --- round-trip: render the declared grammar, extract, compare --------------

_WORDS = ("total", "row", "column", "units", "max", "sum", "check", "values",
          "year", "net", "data", "cells", "match", "scale")


def _noise_line(rng: random.Random) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(2, 6)))


def _answer_text(rng: random.Random) -> str:
    alphabet = string.ascii_letters + string.digits + " .,-%$"
    text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 18))).strip()
    return text or "x"


class TestRoundTrip:
    def test_generated_stage_outputs_round_trip(self):
        rng = random.Random(20240)
        for _ in range(400):
            kind_of = rng.choice(("assess", "solve", "verify", "present", "deliberate"))
            prefix = (_noise_line(rng) + "\n") if rng.random() < 0.5 else ""
            if kind_of == "assess":
                complexity = rng.choice(list(Complexity))
                points = tuple(_noise_line(rng) for _ in range(rng.randint(0, 4)))
                raw = prefix + f"COMPLEXITY: {complexity.value}\nNOTES:"
                if points:
                    raw += "\n" + "\n".join(f"- {p}" for p in points)
                got_complexity, got_notes = extract_assessment(raw)
                assert got_complexity is complexity
                assert got_notes == AnalyticalNotes(points)
            elif kind_of == "solve":
                text = _answer_text(rng)
                answer = extract_solution(prefix + f"ANSWER: {text}", QA)
                assert answer.raw == text
            elif kind_of == "verify":
                verdict = rng.choice(list(Verdict))
                assert extract_verdict(prefix + f"VERDICT: {verdict.value}") is verdict
            elif kind_of == "present":
                text, rationale = _answer_text(rng), _noise_line(rng)
                answer, got_rationale = extract_presentation(
                    prefix + f"RATIONALE: {rationale}\nANSWER: {text}", QA)
                assert (answer.raw, got_rationale) == (text, rationale)
            else:
                text = _answer_text(rng)
                position = rng.choice(("keep", "change"))
                answer, changed = extract_deliberation(
                    prefix + f"POSITION: {position}\nANSWER: {text}", QA)
                assert (answer.raw, changed) == (text, position == "change")
