"""Solver/grader orchestration for proof-style problems.

Public surface: domain types (:mod:`proofpipe.core`), the metered model
gateway and scripted backend (:mod:`proofpipe.gateway`), the prompt
template registry (:mod:`proofpipe.prompts`), the solve/grade engine
(:mod:`proofpipe.dialectic`), conjecture extraction and bisection
(:mod:`proofpipe.conjecture`), the pipeline orchestrator with checkpoint,
resume and replay (:mod:`proofpipe.orchestrator`), and grader metrics
(:mod:`proofpipe.metrics`).
"""

from .core import (
    CandidateSolution,
    FailureReason,
    FailureRecord,
    GradeReport,
    GradingRecord,
    HypothesisPair,
    Issue,
    Lemma,
    Origin,
    PipelineConfig,
    Polarity,
    Problem,
    RunState,
    Severity,
    best,
)
from .gateway import (
    BackendFailure,
    BudgetExceeded,
    CallFailed,
    CostLedger,
    ModelGateway,
    ModelRequest,
    ModelResponse,
    PriceTable,
    ScriptRule,
    ScriptedBackend,
    Usage,
    cost_of,
    estimate_max_budget,
)
from .prompts import PromptRegistry
from .dialectic import DialecticEngine, GradeParseFailure, SolveContext, parse_grade_transcript
from .conjecture import (
    ConjectureEngine,
    ExtractionFailure,
    ParseError,
    SchemaError,
    classify,
    parse_conjectures,
)
from .orchestrator import (
    Orchestrator,
    PipelineResult,
    RerunError,
    call_ceilings,
    extract_decision,
    replay,
    select_kth_top,
    select_top,
)
from .metrics import MetricsReport, bucketize, compute_metrics, load_records, render_confusion
from .trace import RunTrace, first_divergence

__version__ = "0.1.0"
