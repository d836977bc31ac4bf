"""Panel-of-agents deliberation over tables.

A panel of persona-conditioned chat agents answers table-reasoning queries
(free-form QA, three-way fact verification, denotation tasks) through
individual investigation, self-review, and peer review with consensus
detection and majority-vote fallback, plus a benchmark harness.
"""

# Set before the submodules are imported: ``gateway`` reads it.
__version__ = "0.1.0"

from .datasets import DatasetKind, FeverousEvidence, ParseError, fixture, load
from .deliberation import (
    DeliberationTrace,
    InvalidConfig,
    PipelineConfig,
    StageFailed,
    StageName,
    ablation_presets,
    majority_vote,
    run_panel,
)
from .gateway import (
    ApiError,
    BackendConfig,
    ChatMessage,
    ChatRequest,
    OpenAIChatBackend,
    ScriptedBackend,
    ScriptExhausted,
    TransportError,
)
from .metrics import MetricReport, Prediction, score_run
from .personas import (
    Panel,
    Persona,
    PromptLibrary,
    Stage,
    alternative_panel,
    default_panel,
    random_panel,
)
from .tables import (
    Answer,
    ContextPassages,
    Query,
    Table,
    TaskInstance,
    TaskKind,
    flatten_table,
    normalize_answer,
)


__all__ = [
    "Answer",
    "ApiError",
    "BackendConfig",
    "ChatMessage",
    "ChatRequest",
    "ContextPassages",
    "DatasetKind",
    "DeliberationTrace",
    "FeverousEvidence",
    "InvalidConfig",
    "MetricReport",
    "OpenAIChatBackend",
    "Panel",
    "ParseError",
    "Persona",
    "PipelineConfig",
    "Prediction",
    "PromptLibrary",
    "Query",
    "ScriptExhausted",
    "ScriptedBackend",
    "Stage",
    "StageFailed",
    "StageName",
    "Table",
    "TaskInstance",
    "TaskKind",
    "TransportError",
    "ablation_presets",
    "alternative_panel",
    "default_panel",
    "fixture",
    "flatten_table",
    "load",
    "majority_vote",
    "normalize_answer",
    "random_panel",
    "run_panel",
    "score_run",
]
