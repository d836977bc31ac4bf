from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablepanel.personas import (
    OUTPUT_CONTRACTS,
    Panel,
    Persona,
    PromptLibrary,
    PromptTemplate,
    Stage,
    STAGE_PLACEHOLDERS,
    alternative_panel,
    default_panel,
    persona_blurb,
    random_panel,
    render_prompt,
    task_description_for,
)
from tablepanel.tables import TaskKind

# The five panel members and their focus directives are part of the
# contract: golden-tested verbatim.
GOLDEN_PANEL = [
    ("Albert Einstein", "Explore alternative interpretations and conceptual frameworks"),
    ("Isaac Newton", "Verify numerical relationships and logical consistency"),
    ("Marie Curie", "Validate with experimental evidence and practical tests"),
    ("Alan Turing", "Analyze problem structure and optimize solution efficiency"),
    ("Nikola Tesla", "Synthesize diverse perspectives into coherent solutions"),
]


class TestPanels:
    def test_default_panel_matches_golden_strings(self):
        members = default_panel().members
        assert [(m.name, m.focus_directive) for m in members] == GOLDEN_PANEL

    def test_default_panel_has_five_members(self):
        assert len(default_panel()) == 5

    def test_alternative_panel_professions(self):
        names = {m.name for m in alternative_panel().members}
        assert names == {"Doctor", "Artist", "Researcher", "Social Influencer", "Entrepreneur"}
        assert len(alternative_panel()) == 5
        assert all(m.focus_directive for m in alternative_panel().members)

    def test_duplicate_names_rejected(self):
        p = Persona("Same", "focus")
        with pytest.raises(ValueError):
            Panel((p, p))

    def test_panel_size_cap(self):
        members = tuple(Persona(f"P{i}", "focus") for i in range(9))
        with pytest.raises(ValueError):
            Panel(members)

    def test_empty_persona_fields_rejected(self):
        with pytest.raises(ValueError):
            Persona("", "focus")
        with pytest.raises(ValueError):
            Persona("Name", "  ")


class TestRandomPanel:
    def test_same_seed_same_panel(self):
        pool = default_panel()
        assert random_panel(99, pool) == random_panel(99, pool)

    @settings(max_examples=100)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_size_between_two_and_five(self, seed):
        panel = random_panel(seed, default_panel())
        assert 2 <= len(panel) <= 5
        names = [m.name for m in panel.members]
        assert len(set(names)) == len(names)

    def test_pool_too_small(self):
        with pytest.raises(ValueError, match="need at least 2"):
            random_panel(0, Panel((Persona("Solo", "focus"),)))

    def test_members_drawn_from_pool(self):
        pool = default_panel()
        pool_names = {m.name for m in pool.members}
        for seed in range(20):
            assert {m.name for m in random_panel(seed, pool).members} <= pool_names


def full_bindings(stage: Stage) -> dict[str, str]:
    bindings = {
        "persona": persona_blurb(default_panel().members[0]),
        "task_description": task_description_for(TaskKind.qa()),
        "flattened_input": "A | B\n1 | 2",
        "query": "what is A?",
        "complexity": "basic",
        "notes": "- check row 1",
        "prior_solution": "1",
        "peer_solutions": "- Isaac Newton: 1",
    }
    return {k: v for k, v in bindings.items() if k in STAGE_PLACEHOLDERS[stage] | {"persona", "task_description"}}


class TestRenderPrompt:
    @pytest.mark.parametrize("stage", list(Stage))
    def test_returns_system_then_user(self, stage):
        library = PromptLibrary.default()
        messages = render_prompt(library[stage], full_bindings(stage))
        assert [m.role for m in messages] == ["system", "user"]

    @pytest.mark.parametrize("stage", list(Stage))
    def test_output_contract_verbatim_in_system_message(self, stage):
        library = PromptLibrary.default()
        system, _ = render_prompt(library[stage], full_bindings(stage))
        assert OUTPUT_CONTRACTS[stage] in system.content

    @pytest.mark.parametrize("stage", list(Stage))
    def test_no_placeholder_residue(self, stage):
        library = PromptLibrary.default()
        for message in render_prompt(library[stage], full_bindings(stage)):
            for name in STAGE_PLACEHOLDERS[stage] | {"persona", "task_description"}:
                assert "{" + name + "}" not in message.content

    def test_missing_binding_raises_with_placeholder_name(self):
        library = PromptLibrary.default()
        bindings = full_bindings(Stage.ASSESS)
        del bindings["query"]
        with pytest.raises(KeyError) as err:
            render_prompt(library[Stage.ASSESS], bindings)
        assert err.value.args == ("query",)

    def test_rendering_is_deterministic(self):
        library = PromptLibrary.default()
        bindings = full_bindings(Stage.SOLVE)
        first = render_prompt(library[Stage.SOLVE], bindings)
        second = render_prompt(library[Stage.SOLVE], bindings)
        assert first == second

    def test_values_containing_braces_pass_through(self):
        library = PromptLibrary.default()
        bindings = full_bindings(Stage.ASSESS)
        bindings["query"] = "literal {braces} stay"
        _, user = render_prompt(library[Stage.ASSESS], bindings)
        assert "literal {braces} stay" in user.content

    def test_persona_identity_in_system_message(self):
        library = PromptLibrary.default()
        system, _ = render_prompt(library[Stage.ASSESS], full_bindings(Stage.ASSESS))
        assert "Albert Einstein" in system.content
        assert GOLDEN_PANEL[0][1] in system.content


class TestTemplates:
    def test_template_missing_required_placeholder_rejected(self):
        with pytest.raises(ValueError, match="assess template is missing placeholders"):
            PromptTemplate(Stage.ASSESS, "no placeholders at all")

    def test_template_with_unknown_placeholder_rejected(self):
        with pytest.raises(ValueError, match="assess template has unknown placeholders"):
            PromptTemplate(Stage.ASSESS, "{flattened_input} {query} {bogus}")

    def test_override_directory(self, tmp_path):
        body = "CUSTOM {flattened_input} :: {query}"
        (tmp_path / "assess.txt").write_text(body, encoding="utf-8")
        library = PromptLibrary.from_dir(tmp_path)
        assert library[Stage.ASSESS].body == body
        # stages without an override file keep the default
        assert library[Stage.SOLVE] == PromptLibrary.default()[Stage.SOLVE]

    def test_override_file_may_start_with_a_byte_order_mark(self, tmp_path):
        body = "CUSTOM {flattened_input} :: {query}"
        (tmp_path / "assess.txt").write_text("\ufeff" + body, encoding="utf-8")
        assert PromptLibrary.from_dir(tmp_path)[Stage.ASSESS].body == body

    def test_override_with_bad_placeholders_rejected(self, tmp_path):
        (tmp_path / "verify.txt").write_text("{nope}", encoding="utf-8")
        with pytest.raises(ValueError, match="verify template is missing placeholders"):
            PromptLibrary.from_dir(tmp_path)


class TestTaskDescriptions:
    def test_fact_verification_lists_labels(self):
        desc = task_description_for(TaskKind.fact_verify(("entailed", "refuted", "unknown")))
        for label in ("entailed", "refuted", "unknown"):
            assert label in desc

    def test_each_mode_distinct(self):
        descs = {
            task_description_for(TaskKind.qa()),
            task_description_for(TaskKind.sql_denotation()),
            task_description_for(TaskKind.fact_verify(("supports", "refutes", "nei"))),
        }
        assert len(descs) == 3
