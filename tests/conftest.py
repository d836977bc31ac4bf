from __future__ import annotations

import re
import threading
from pathlib import Path

import pytest

from tablepanel.deliberation import PANEL_THREAD_PREFIX, PanelRun, PipelineConfig
from tablepanel.gateway import ScriptedBackend, ScriptEntry
from tablepanel.personas import OUTPUT_CONTRACTS, Panel, PromptLibrary, Stage, default_panel
from tablepanel.tables import (
    Answer, ContextPassages, Table, TaskInstance, TaskKind, flatten_table,
)


def stage_entry(stage: Stage, response: str) -> ScriptEntry:
    """A script entry that fires only for prompts of the given stage.

    Each stage's full output contract appears verbatim in that stage's
    system message and nowhere else (agent histories only ever echo concrete
    marker lines, not the bracketed contract text), so it is a safe matcher.
    """
    return ScriptEntry(response=response, matcher=OUTPUT_CONTRACTS[stage])


def stage_entries(stage: Stage, response: str, n: int) -> list[ScriptEntry]:
    return [stage_entry(stage, response) for _ in range(n)]


def assessment_text(complexity: str = "basic", points: tuple[str, ...] = ("check the table",)) -> str:
    lines = [f"COMPLEXITY: {complexity}", "NOTES:"]
    lines.extend(f"- {p}" for p in points)
    return "\n".join(lines)


def make_table() -> Table:
    return Table(
        headers=("Model", "Score", "Year"),
        rows=(("B-1", "88", "2019"), ("C-2", "74", "2020")),
        caption="Benchmark entries",
    )


def make_task(kind: TaskKind | None = None, task_id: str = "task-1",
              query: str = "Which model scored highest?") -> TaskInstance:
    kind = kind or TaskKind.qa()
    gold_text = kind.label_set[0] if kind.label_set else "B-1"
    return TaskInstance(
        id=task_id,
        table=make_table(),
        context=ContextPassages(("Scores are out of 100.",)),
        query=query,
        kind=kind,
        gold=Answer.from_raw(gold_text, kind),
    )


@pytest.fixture(autouse=True)
def no_leaked_panel_threads():
    """Fail any test that leaves a panel pool thread alive: ``run_panel``
    must shut its pool down on every path."""
    yield
    leaked = [t.name for t in threading.enumerate() if t.name.startswith(PANEL_THREAD_PREFIX)]
    if leaked:
        pytest.fail(f"panel pool threads outlived the test: {leaked}")


@pytest.fixture
def qa_task() -> TaskInstance:
    return make_task()


def unanimity_script(answer: str, agents: int = 5) -> list[ScriptEntry]:
    """Happy-path script for the full pipeline: every agent assesses, solves,
    validates, then presents the same answer."""
    return (
        stage_entries(Stage.ASSESS, assessment_text(), agents)
        + stage_entries(Stage.SOLVE, f"ANSWER: {answer}", agents)
        + stage_entries(Stage.VERIFY, "VERDICT: validated", agents)
        + stage_entries(Stage.PRESENT, f"RATIONALE: read from the table\nANSWER: {answer}", agents)
    )


def make_backend(entries) -> ScriptedBackend:
    return ScriptedBackend(entries)


def make_run(task: TaskInstance, backend, config: PipelineConfig | None = None,
             **fields) -> PanelRun:
    """A run for calling one stage function directly: ``config``, or a
    one-member panel with the given ``PipelineConfig`` fields
    (``t_max_self``, ``format_retry``, ...)."""
    if config is None:
        config = PipelineConfig(panel=Panel((default_panel().members[0],)), **fields)
    return PanelRun(task, config, backend, PromptLibrary.default(),
                    flatten_table(task.table, task.context))


def readme_scripted_backend() -> str:
    """The scripted backend example in README.md."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return re.search(r"```json\n(\{\"type\": \"scripted\".*?)```", readme, re.S).group(1)
