"""Agent personas, panel construction, and stage prompt rendering.

Each prompt does exactly one atomic step. The system message carries the
persona identity, the task description, the panel ground rules, and the
stage's output-format contract; the user message is the rendered stage body.
Stage bodies are overridable from a plain-text template directory (one file
per stage, ``{name}`` placeholders).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping

from .gateway import ChatMessage
from .tables import AnswerMode, TaskKind


class PoolTooSmall(ValueError):
    """Random panel selection needs a pool of at least two personas."""


class MissingBinding(KeyError):
    def __init__(self, placeholder: str):
        super().__init__(placeholder)
        self.placeholder = placeholder


class TemplateError(ValueError):
    """A template body references placeholders its stage does not define."""


@dataclass(frozen=True)
class Persona:
    name: str
    focus_directive: str

    def __post_init__(self) -> None:
        if not self.name.strip() or not self.focus_directive.strip():
            raise ValueError("persona name and focus directive must be non-empty")


@dataclass(frozen=True)
class Panel:
    members: tuple[Persona, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        # Floor of 1 admits the single-agent pipeline configurations; peer
        # review itself requires >= 2 members (enforced on the run config).
        if not 1 <= len(self.members) <= 8:
            raise ValueError("panel must have between 1 and 8 members")
        names = [m.name for m in self.members]
        if len(set(names)) != len(names):
            raise ValueError("panel member names must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.members)


class Stage(str, Enum):
    ASSESS = "assess"
    SOLVE = "solve"
    VERIFY = "verify"
    PRESENT = "present"
    DELIBERATE = "deliberate"


# Placeholders each stage's body must reference. The system scaffold always
# takes {persona} and {task_description} on top of these.
STAGE_PLACEHOLDERS: dict[Stage, frozenset[str]] = {
    Stage.ASSESS: frozenset({"flattened_input", "query"}),
    Stage.SOLVE: frozenset({"flattened_input", "query", "complexity", "notes"}),
    Stage.VERIFY: frozenset({"flattened_input", "query", "prior_solution"}),
    Stage.PRESENT: frozenset({"flattened_input", "query", "prior_solution", "peer_solutions"}),
    Stage.DELIBERATE: frozenset({"flattened_input", "query", "prior_solution", "peer_solutions"}),
}

_SYSTEM_EXTRAS = frozenset({"persona", "task_description"})

# Fixed output contracts. These exact strings go into every system message,
# and the extraction module's regexes target exactly these marker lines.
OUTPUT_CONTRACTS: dict[Stage, str] = {
    Stage.ASSESS: (
        "Reply with exactly these markers:\n"
        "COMPLEXITY: <basic|intermediate|complex>\n"
        "NOTES:\n"
        '- <one analytical point per line, each line starting with "- ">'
    ),
    Stage.SOLVE: (
        "End your reply with a single line:\n"
        "ANSWER: <your final answer>"
    ),
    Stage.VERIFY: (
        "End your reply with a single line:\n"
        "VERDICT: <uncertain|validated>"
    ),
    Stage.PRESENT: (
        "End your reply with exactly these two lines:\n"
        "RATIONALE: <one-line justification>\n"
        "ANSWER: <your final answer>"
    ),
    Stage.DELIBERATE: (
        "End your reply with exactly these two lines:\n"
        "POSITION: <keep|change>\n"
        "ANSWER: <your final answer>"
    ),
}

_SYSTEM_SCAFFOLD = """{persona}

{task_description}

Ground rules:
- Do exactly the one step this message asks for; nothing more.
- Maintain healthy skepticism about how hard the problem really is; never default to an oversimplified reading.
- You may freely revise your own answer or keep a dissenting view; never force agreement.

{output_contract}"""

_DEFAULT_BODIES: dict[Stage, str] = {
    Stage.ASSESS: (
        "{flattened_input}\n"
        "\n"
        "Question: {query}\n"
        "\n"
        "Before solving anything, assess this problem: how demanding is it, and\n"
        "which analytical points need attention (units, aggregation, ambiguous\n"
        "wording, missing data)?"
    ),
    Stage.SOLVE: (
        "{flattened_input}\n"
        "\n"
        "Question: {query}\n"
        "\n"
        "Complexity assessment: {complexity}\n"
        "Analytical points:\n"
        "{notes}\n"
        "\n"
        "Work the problem through and commit to one answer."
    ),
    Stage.VERIFY: (
        "{flattened_input}\n"
        "\n"
        "Question: {query}\n"
        "\n"
        "Your current answer: {prior_solution}\n"
        "\n"
        "Re-check this answer against the evidence step by step. Declare it\n"
        "validated only if it is fully consistent with the question and the\n"
        "data; declare it uncertain if any gap or inconsistency remains."
    ),
    Stage.PRESENT: (
        "{flattened_input}\n"
        "\n"
        "Question: {query}\n"
        "\n"
        "Your current answer: {prior_solution}\n"
        "\n"
        "Solutions presented so far:\n"
        "{peer_solutions}\n"
        "\n"
        "Present your solution to the panel. You may adjust your answer in\n"
        "light of the earlier presentations, or keep it as it is."
    ),
    Stage.DELIBERATE: (
        "{flattened_input}\n"
        "\n"
        "Question: {query}\n"
        "\n"
        "Your current answer: {prior_solution}\n"
        "\n"
        "The panel's answers from the previous round:\n"
        "{peer_solutions}\n"
        "\n"
        "Weigh the other panelists' positions against your own reasoning, then\n"
        "either keep your answer or change it."
    ),
}

_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")


@dataclass(frozen=True)
class PromptTemplate:
    stage: Stage
    body: str

    def __post_init__(self) -> None:
        required = STAGE_PLACEHOLDERS[self.stage]
        found = set(_PLACEHOLDER_RE.findall(self.body))
        missing = required - found
        if missing:
            raise TemplateError(
                f"{self.stage.value} template is missing placeholders: {sorted(missing)}"
            )
        unknown = found - required - _SYSTEM_EXTRAS
        if unknown:
            raise TemplateError(
                f"{self.stage.value} template has unknown placeholders: {sorted(unknown)}"
            )


class PromptLibrary:
    """One template per stage; defaults overridable from a directory of
    ``<stage>.txt`` files."""

    def __init__(self, templates: Mapping[Stage, PromptTemplate]):
        missing = set(Stage) - set(templates)
        if missing:
            raise TemplateError(f"missing templates for stages: {sorted(s.value for s in missing)}")
        self._templates = dict(templates)

    def __getitem__(self, stage: Stage) -> PromptTemplate:
        return self._templates[stage]

    @classmethod
    def default(cls) -> "PromptLibrary":
        return cls({s: PromptTemplate(s, body) for s, body in _DEFAULT_BODIES.items()})

    @classmethod
    def from_dir(cls, path: str | Path) -> "PromptLibrary":
        """Load ``assess.txt``, ``solve.txt``, ... from ``path``; stages
        without a file keep the built-in body."""
        root = Path(path)
        templates = {}
        for stage in Stage:
            file = root / f"{stage.value}.txt"
            body = file.read_text(encoding="utf-8") if file.exists() else _DEFAULT_BODIES[stage]
            templates[stage] = PromptTemplate(stage, body)
        return cls(templates)


def persona_blurb(persona: Persona) -> str:
    return f"You are {persona.name}, one scientist on a review panel. {persona.focus_directive}."


def task_description_for(kind: TaskKind) -> str:
    if kind.mode is AnswerMode.FACT_VERIFY_3WAY:
        labels = ", ".join(kind.label_set)
        return (
            "Task: decide whether the claim is supported by the table and any "
            f"passages. Your final answer must be exactly one of: {labels}."
        )
    if kind.mode is AnswerMode.SQL_DENOTATION:
        return (
            "Task: answer the question with the exact value or values the table "
            "yields; separate multiple values with commas. Do not explain inside "
            "the answer line."
        )
    return (
        "Task: answer the question from the table and any passages. Give the "
        "shortest exact answer (a value, a span, or a comma-separated list), "
        "with no explanation inside the answer line."
    )


def render_prompt(template: PromptTemplate, bindings: Mapping[str, str]) -> list[ChatMessage]:
    """Render a stage prompt into [system, user] messages by pure
    substitution. Raises MissingBinding if a referenced placeholder is
    unbound."""
    required = STAGE_PLACEHOLDERS[template.stage] | _SYSTEM_EXTRAS
    for name in sorted(required):
        if name not in bindings:
            raise MissingBinding(name)
    system = _SYSTEM_SCAFFOLD.format(
        persona=bindings["persona"],
        task_description=bindings["task_description"],
        output_contract=OUTPUT_CONTRACTS[template.stage],
    )
    # Every placeholder a body holds is one checked above (see PromptTemplate).
    user = _PLACEHOLDER_RE.sub(lambda m: bindings[m.group(1)], template.body)
    return [ChatMessage("system", system), ChatMessage("user", user)]


def default_panel() -> Panel:
    """The five-scientist panel with each member's analytical focus."""
    return Panel((
        Persona("Albert Einstein", "Explore alternative interpretations and conceptual frameworks"),
        Persona("Isaac Newton", "Verify numerical relationships and logical consistency"),
        Persona("Marie Curie", "Validate with experimental evidence and practical tests"),
        Persona("Alan Turing", "Analyze problem structure and optimize solution efficiency"),
        Persona("Nikola Tesla", "Synthesize diverse perspectives into coherent solutions"),
    ))


def alternative_panel() -> Panel:
    """Five non-scientist professions used to probe role sensitivity."""
    return Panel((
        Persona("Doctor", "Check conclusions against practical diagnostic rigor"),
        Persona("Artist", "Question the framing and look for unconventional readings of the evidence"),
        Persona("Researcher", "Ground every claim in the given data and point to the cells that support it"),
        Persona("Social Influencer", "Judge whether the answer would convince a skeptical audience"),
        Persona("Entrepreneur", "Weigh the cost of being wrong and commit to the most defensible answer"),
    ))


def random_panel(seed: int, pool: Panel) -> Panel:
    """A panel of 2-5 members sampled from ``pool`` without replacement,
    fully determined by ``seed``."""
    if len(pool) < 2:
        raise PoolTooSmall(f"pool has {len(pool)} member(s); need at least 2")
    rng = random.Random(seed)
    k = rng.randint(2, min(5, len(pool)))
    members = rng.sample(list(pool.members), k)
    return Panel(tuple(members))
