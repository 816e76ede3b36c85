"""Shared domain types for the solving pipeline.

Everything here is plain data: no I/O, no model calls. Types are immutable
values except :class:`RunState`, which grows only by the state events its
run records (:data:`STATE_EVENTS`). The records the run trace stores
(problems, solutions with their grades, lemmas, failure records, and in
other modules a call's usage and the trace event itself) derive from
:class:`Record`, which holds their JSON form once: ``to_dict`` and
``from_dict``. That form is the schema of the trace, from which a resumed
run rebuilds its :class:`RunState`; the config, which is input, keeps a
stricter reader of its own.
"""
from __future__ import annotations

import functools
import hashlib
import json
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields
from enum import Enum
from typing import Any, Callable, Iterable, Optional, Union

VALID_SCORES = frozenset({0, 1, 2, 3, 4, 6, 7})  # 5 is disallowed by the rubric
PERFECT_SCORE = 7
FALLACY_CAP = 3


class Origin(str, Enum):
    FRESH = "fresh"
    CONTEXTUAL = "contextual"
    GUIDED = "guided"
    POST_ENHANCED = "post_enhanced"


class Severity(str, Enum):
    SLIP = "slip"
    FALLACY = "fallacy"


class Polarity(str, Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


class FailureReason(str, Enum):
    AMBIGUOUS = "ambiguous"      # neither side cleanly won the bisection
    UNRESOLVED = "unresolved"    # a model/grading failure prevented a verdict


def canonical_json(payload: Any) -> str:
    """Stable serialization: sorted keys, no whitespace drift."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def digest(payload: Any) -> str:
    return text_digest(canonical_json(payload))


def text_digest(text: str) -> str:
    """The digest of a canonical JSON text: ``digest(x)`` is ``text_digest(canonical_json(x))``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Record:
    """The JSON form of a dataclass that the trace stores.

    ``to_dict`` stores each field under its name, in field order: an enum
    as its value, a tuple as a list, a nested record as its dict, any other
    value as it is. ``from_dict`` reads that back by the fields' type hints
    (``Optional[X]``, ``tuple[X, ...]``, an enum, a nested record). A field
    with a default may be missing, a missing required field raises
    ``KeyError``, and a key the class lacks (one an older trace stored) is
    skipped. Each class's event digests cover this form, so it must not
    move.
    """

    def to_dict(self) -> dict:
        return {name: _stored(getattr(self, name)) for name, _, _ in _plan(type(self))}

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise ValueError(f"a {cls.__name__} is stored as a dict, not {d!r}")
        values = {}
        for name, read, required in _plan(cls):
            if name in d:
                values[name] = d[name] if read is None else read(d[name])
            elif required:
                raise KeyError(name)
        return cls(**values)


def _stored(value: Any) -> Any:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_stored(item) for item in value]
    return value


def _reader(hint: Any) -> Optional[Callable[[Any], Any]]:
    """What turns a stored value back into a field of type ``hint``; None
    when the stored value is the field's value."""
    origin = typing.get_origin(hint)
    if origin is Union or origin is types.UnionType:
        (inner,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        read = _reader(inner)
        return read and (lambda value: None if value is None else read(value))
    if origin is tuple:
        read = _reader(typing.get_args(hint)[0])
        return (lambda value: tuple(map(read, value))) if read else tuple
    if isinstance(hint, type) and issubclass(hint, (Record, Enum)):
        return hint.from_dict if issubclass(hint, Record) else hint
    return None


@functools.cache
def _plan(cls: type) -> tuple[tuple[str, Optional[Callable[[Any], Any]], bool], ...]:
    """Each field of record class ``cls``: its name, its reader and whether
    it is required. Computed once per class: ``get_type_hints`` is slow."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, _reader(hints[f.name]), f.default is MISSING and f.default_factory is MISSING) for f in fields(cls)
    )


@dataclass(frozen=True)
class Problem(Record):
    """A problem statement plus optional unverified hint material."""

    id: str
    statement: str
    additional_materials: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"problem id must be a non-empty string, not {self.id!r}")
        if not isinstance(self.statement, str) or not self.statement.strip():
            raise ValueError(f"problem statement must be a non-empty string, not {self.statement!r}")
        if not isinstance(self.additional_materials, (str, type(None))):
            raise ValueError(f"problem additional_materials must be a string, not {self.additional_materials!r}")


@dataclass(frozen=True)
class Issue(Record):
    text: str
    severity: Severity


@dataclass(frozen=True)
class GradeReport(Record):
    """A parsed grading verdict on the 0-7 scale.

    Construction enforces the rubric's shape: 5 is never a valid stored
    score, a perfect 7 cannot carry issues, and the presence of any fallacy
    caps the score at 3. Upstream parsers must coerce before constructing;
    coercions are recorded in ``notes`` so no information is silently lost.
    """

    score: int
    issues: tuple[Issue, ...] = ()
    scaffolding: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.score not in VALID_SCORES:
            raise ValueError(f"score {self.score} not in {sorted(VALID_SCORES)}")
        if self.score == PERFECT_SCORE and self.issues:
            raise ValueError("a perfect score cannot carry issues")
        if any(i.severity is Severity.FALLACY for i in self.issues) and self.score > FALLACY_CAP:
            raise ValueError(f"a fallacy caps the score at {FALLACY_CAP}")

    @property
    def clean_perfect(self) -> bool:
        return self.score == PERFECT_SCORE and not self.issues


@dataclass(frozen=True)
class CandidateSolution(Record):
    """A proof attempt with provenance: which phase and context produced it.

    ``id`` is allocated when the solve that produces the solution is forked,
    so ids sort in creation order; :func:`best` breaks ties on it.
    """

    id: str
    problem_id: str
    proof_text: str
    origin: Origin
    phase: int
    grade: Optional[GradeReport] = None

    def __post_init__(self) -> None:
        if not self.proof_text:
            raise ValueError("proof_text must be non-empty")
        if self.phase not in (1, 2, 3, 4):
            raise ValueError(f"phase must be 1..4, got {self.phase}")


@dataclass(frozen=True)
class HypothesisPair:
    """A self-contained conjecture and its self-contained negation.

    The pair is stored and verified atomically; neither text may refer back
    to the proof it was extracted from.
    """

    id: str
    conjecture: str
    negation: str

    def __post_init__(self) -> None:
        if not self.conjecture.strip() or not self.negation.strip():
            raise ValueError("conjecture and negation must both be non-empty")


@dataclass(frozen=True)
class Lemma(Record):
    """A bisection-verified statement: exactly one side cleared the bar."""

    statement: str
    polarity: Polarity
    proof_text: str
    g_pos: int
    g_neg: int
    pair_id: str
    threshold: int = PERFECT_SCORE

    def __post_init__(self) -> None:
        pos_won = self.g_pos >= self.threshold
        neg_won = self.g_neg >= self.threshold
        if pos_won == neg_won:
            raise ValueError("exactly one side of a stored lemma must clear the threshold")
        if (self.polarity is Polarity.POSITIVE) != pos_won:
            raise ValueError("lemma polarity does not match the winning side")


@dataclass(frozen=True)
class FailureRecord(Record):
    """A bisection pair that yielded no lemma, and why."""

    pair_id: str
    conjecture: str
    reason: FailureReason
    detail: str = ""


@dataclass
class PipelineConfig:
    """The settings of a pipeline run.

    Defaults are the full-strength setup: width 4, three outer conjecture
    iterations, triple-check verification, a three-pair extraction budget
    and two aggregated parallel runs. The thresholds, sampling temperatures
    and prompt caps are fixed constants, not settings (see
    :mod:`proofpipe.orchestrator` and :mod:`proofpipe.dialectic`).
    """

    initial_iterations: int = 1          # L0: phase-1 exploration rounds
    conjecture_iterations: int = 3       # L: outer extract/verify/solve rounds
    solver_width: int = 4                # K: solutions per round
    verify_repeats: int = 3              # N: clean check grades of one text required
    extraction_budget: int = 3           # k: max conjecture pairs per extraction
    parallel_runs: int = 2
    token_budget: int = 8_000_000
    max_output_tokens: int = 32_768
    price_table: dict[str, dict[str, str]] = field(default_factory=dict)
    retry_attempts: int = 3
    strict_budget: bool = False          # reserve max_output_tokens before each call

    def __post_init__(self) -> None:
        if self.solver_width < 1:
            raise ValueError("solver_width must be >= 1")
        if self.token_budget <= 0:
            raise ValueError("token_budget must be positive")
        if self.max_output_tokens <= 0:
            raise ValueError("max_output_tokens must be positive")
        if self.initial_iterations < 0 or self.conjecture_iterations < 0:
            raise ValueError("iteration counts must be >= 0")
        if self.verify_repeats < 1:
            raise ValueError("verify_repeats must be >= 1")
        if self.extraction_budget < 1:
            raise ValueError("extraction_budget must be >= 1")
        if self.parallel_runs < 1:
            raise ValueError("parallel_runs must be >= 1")
        if self.retry_attempts < 1:
            raise ValueError("retry_attempts must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        # Not a Record: a config is input, so an unknown key is refused, not skipped.
        try:
            return cls(**d)
        except TypeError as exc:  # an unknown key, or a value of the wrong type
            raise ValueError(f"bad pipeline config: {exc}") from None


# The state events: each event kind that grows a run's state, the type its
# payload records and the :class:`RunState` memory its item joins.
STATE_EVENTS: dict[str, tuple[type, str]] = {
    "solution": (CandidateSolution, "solution_memory"),
    "pair_proven": (Lemma, "lemma_memory"),
    "pair_failed": (FailureRecord, "failure_context"),
}


@dataclass
class RunState:
    """Mutable state of one pipeline run.

    The memories only ever grow, one item per state event of the run
    (:data:`STATE_EVENTS`), through :meth:`grow`: the live run as it records
    the event (:meth:`~proofpipe.dialectic.DialecticEngine.record`), a
    resumed run as it folds the events before its marker (:meth:`fold`). So
    a run's state is always the fold of its trace.
    """

    run_id: str
    solution_memory: list[CandidateSolution] = field(default_factory=list)
    lemma_memory: list[Lemma] = field(default_factory=list)
    failure_context: list[FailureRecord] = field(default_factory=list)

    def grow(self, kind: str, item: CandidateSolution | Lemma | FailureRecord) -> None:
        """Add the item of a ``kind`` state event to the memory it grows."""
        getattr(self, STATE_EVENTS[kind][1]).append(item)

    def fold(self, events: Iterable) -> None:
        """Grow by this run's state events among ``events`` (trace events), in order."""
        for event in events:
            if event.run_id == self.run_id and event.kind in STATE_EVENTS:
                self.grow(event.kind, STATE_EVENTS[event.kind][0].from_dict(event.payload))


@dataclass(frozen=True)
class GradingRecord:
    """A (human grade, predicted grade) pair for grader evaluation."""

    human: int
    predicted: float
    problem_id: Optional[str] = None

    def __post_init__(self) -> None:
        if not (0 <= self.human <= 7):
            raise ValueError(f"human grade out of range: {self.human}")
        if not (0 <= self.predicted <= 7):
            raise ValueError(f"predicted grade out of range: {self.predicted}")


def comparator_key(solution: CandidateSolution) -> tuple:
    """Total-order key for ranking graded solutions.

    Higher score wins; ties break on fewer issues, then on the id, which
    is zero-padded and allocated in creation order, so the earlier solution
    wins. The ordering is deterministic so any permutation of a set selects
    the same best element.
    """
    if solution.grade is None:
        raise ValueError(f"solution {solution.id} is ungraded")
    return (-solution.grade.score, len(solution.grade.issues), solution.id)


def best(solutions: Iterable[CandidateSolution]) -> CandidateSolution:
    """Return the maximal graded solution under :func:`comparator_key`."""
    pool = list(solutions)
    if not pool:
        raise ValueError("no candidates")
    return min(pool, key=comparator_key)


def rank(solutions: Iterable[CandidateSolution]) -> list[CandidateSolution]:
    """All solutions, best first, deduplicated by proof text (best kept)."""
    ordered = sorted(solutions, key=comparator_key)
    seen: set[str] = set()
    out: list[CandidateSolution] = []
    for s in ordered:
        if s.proof_text in seen:
            continue
        seen.add(s.proof_text)
        out.append(s)
    return out
