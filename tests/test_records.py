"""The stored form of every record the trace holds.

Each event digest covers the canonical JSON of its payload, so the dict a
record stores is part of the trace format: a changed key, an enum stored by
name or a tuple stored otherwise than as a list would move digests and break
``replay`` of older traces. These tests pin that dict for each record class,
with the cases a two-run well solve does not reach (a failure record, a
fallacy, a report's notes and scaffolding, a positive lemma, a problem
without materials), and check that each record reads back as itself.
"""
import json
from dataclasses import MISSING, fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from proofpipe.core import (
    VALID_SCORES,
    CandidateSolution,
    FailureReason,
    FailureRecord,
    GradeReport,
    Issue,
    Lemma,
    Origin,
    Polarity,
    Problem,
    Severity,
)
from proofpipe.gateway import Usage
from proofpipe.trace import TraceEvent

FALLACY = Issue("the induction step assumes the claim", Severity.FALLACY)
SLIP = Issue("off by one in the base case", Severity.SLIP)
REPORT = GradeReport(
    score=2,
    issues=(FALLACY, SLIP),
    scaffolding=("Which step uses the claim?", "Is n = 1 covered?"),
    notes=("coerced score 5 to 4", "fallacy cap applied"),
)
FALLACY_DICT = {"text": "the induction step assumes the claim", "severity": "fallacy"}
SLIP_DICT = {"text": "off by one in the base case", "severity": "slip"}
REPORT_DICT = {
    "score": 2,
    "issues": [FALLACY_DICT, SLIP_DICT],
    "scaffolding": ["Which step uses the claim?", "Is n = 1 covered?"],
    "notes": ["coerced score 5 to 4", "fallacy cap applied"],
}

# (record, the dict it stores), one or more per record class.
STORED = [
    (Problem("p1", "Show that 2 + 2 = 4."), {"id": "p1", "statement": "Show that 2 + 2 = 4.", "additional_materials": None}),
    (
        Problem("p2", "Show it.", "Try induction."),
        {"id": "p2", "statement": "Show it.", "additional_materials": "Try induction."},
    ),
    (FALLACY, FALLACY_DICT),
    (SLIP, SLIP_DICT),
    (REPORT, REPORT_DICT),
    (GradeReport(7), {"score": 7, "issues": [], "scaffolding": [], "notes": []}),
    (
        CandidateSolution("run1.s0003", "p1", "By induction on n.", Origin.GUIDED, 3, REPORT),
        {
            "id": "run1.s0003",
            "problem_id": "p1",
            "proof_text": "By induction on n.",
            "origin": "guided",
            "phase": 3,
            "grade": REPORT_DICT,
        },
    ),
    (
        CandidateSolution("run2.s0000", "p1", "Directly.", Origin.POST_ENHANCED, 4),
        {
            "id": "run2.s0000",
            "problem_id": "p1",
            "proof_text": "Directly.",
            "origin": "post_enhanced",
            "phase": 4,
            "grade": None,
        },
    ),
    (
        Lemma("every deck has a fixed point", Polarity.POSITIVE, "By pigeonhole.", g_pos=7, g_neg=2, pair_id="run1.h0001"),
        {
            "statement": "every deck has a fixed point",
            "polarity": "positive",
            "proof_text": "By pigeonhole.",
            "g_pos": 7,
            "g_neg": 2,
            "pair_id": "run1.h0001",
            "threshold": 7,
        },
    ),
    (
        Lemma("no deck has a fixed point", Polarity.NEGATIVE, "Counterexample.", g_pos=3, g_neg=7, pair_id="h2", threshold=6),
        {
            "statement": "no deck has a fixed point",
            "polarity": "negative",
            "proof_text": "Counterexample.",
            "g_pos": 3,
            "g_neg": 7,
            "pair_id": "h2",
            "threshold": 6,
        },
    ),
    (
        FailureRecord("run1.h0002", "CONJ_BETA", FailureReason.UNRESOLVED, "BackendFailure: timed out"),
        {"pair_id": "run1.h0002", "conjecture": "CONJ_BETA", "reason": "unresolved", "detail": "BackendFailure: timed out"},
    ),
    (
        FailureRecord("h3", "CONJ_GAMMA", FailureReason.AMBIGUOUS),
        {"pair_id": "h3", "conjecture": "CONJ_GAMMA", "reason": "ambiguous", "detail": ""},
    ),
    (Usage(7, 5, 2), {"input_tokens": 7, "output_tokens": 5, "thinking_tokens": 2}),
    (Usage(1, 0), {"input_tokens": 1, "output_tokens": 0, "thinking_tokens": 0}),
    (
        TraceEvent(4, 1700000000.25, "run1", 2, "pair_failed", "ab" * 32, {"pair_id": "h3", "detail": ""}),
        {
            "seq": 4,
            "ts": 1700000000.25,
            "run_id": "run1",
            "phase": 2,
            "kind": "pair_failed",
            "digest": "ab" * 32,
            "payload": {"pair_id": "h3", "detail": ""},
        },
    ),
]
RECORD_CLASSES = (Problem, Issue, GradeReport, CandidateSolution, Lemma, FailureRecord, Usage, TraceEvent)


def test_every_record_class_is_pinned():
    assert {type(record) for record, _ in STORED} == set(RECORD_CLASSES)


def test_the_pinned_classes_are_the_record_classes():
    from proofpipe.core import Record

    assert set(Record.__subclasses__()) == set(RECORD_CLASSES)


@pytest.mark.parametrize("record, stored", STORED, ids=[f"{type(r).__name__}{i}" for i, (r, _) in enumerate(STORED)])
def test_the_stored_dict_of_each_record(record, stored):
    """Each field under its name, in field order; an enum as its value, a
    tuple as a list, a nested record as its dict; and it reads back."""
    assert record.to_dict() == stored
    assert list(record.to_dict()) == list(stored)
    assert json.loads(json.dumps(record.to_dict())) == stored
    assert type(record).from_dict(stored) == record


@pytest.mark.parametrize("record, stored", STORED, ids=[f"{type(r).__name__}{i}" for i, (r, _) in enumerate(STORED)])
def test_a_defaulted_field_may_be_missing_and_a_required_one_may_not(record, stored):
    cls = type(record)
    for f in fields(cls):
        rest = {key: value for key, value in stored.items() if key != f.name}
        if f.default is MISSING and f.default_factory is MISSING:
            with pytest.raises(KeyError):
                cls.from_dict(rest)
        else:
            default = f.default if f.default is not MISSING else f.default_factory()
            assert getattr(cls.from_dict(rest), f.name) == default


def test_an_unknown_key_is_skipped():
    """An older trace's solution also carries ``context_digest`` or ``cost_at_creation_micro``."""
    record, stored = STORED[6]
    assert CandidateSolution.from_dict({**stored, "context_digest": "00", "cost_at_creation_micro": 12}) == record


texts = st.text(max_size=20)
names = st.text(min_size=1, max_size=12)
issues = st.builds(Issue, texts, st.sampled_from(Severity))


@st.composite
def reports(draw):
    drawn = tuple(draw(st.lists(issues, max_size=3)))
    allowed = sorted(VALID_SCORES)
    if drawn:
        allowed = [score for score in allowed if score < 7]
    if any(issue.severity is Severity.FALLACY for issue in drawn):
        allowed = [score for score in allowed if score <= 3]
    return GradeReport(
        draw(st.sampled_from(allowed)), drawn, tuple(draw(st.lists(texts, max_size=2))), tuple(draw(st.lists(texts, max_size=2)))
    )


@st.composite
def lemmas(draw):
    threshold = draw(st.integers(1, 7))
    won, lost = draw(st.integers(threshold, 7)), draw(st.integers(0, threshold - 1))
    polarity = draw(st.sampled_from(Polarity))
    g_pos, g_neg = (won, lost) if polarity is Polarity.POSITIVE else (lost, won)
    return Lemma(draw(texts), polarity, draw(texts), g_pos, g_neg, draw(names), threshold)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(texts, inner, max_size=3),
    max_leaves=8,
)
counts = st.integers(0, 10**9)
RECORDS = {
    Problem: st.builds(Problem, names, names.filter(str.strip), st.none() | texts),
    Issue: issues,
    GradeReport: reports(),
    CandidateSolution: st.builds(
        CandidateSolution, names, names, names, st.sampled_from(Origin), st.integers(1, 4), st.none() | reports()
    ),
    Lemma: lemmas(),
    FailureRecord: st.builds(FailureRecord, names, texts, st.sampled_from(FailureReason), texts),
    Usage: st.builds(Usage, counts, counts, counts),
    TraceEvent: st.builds(
        TraceEvent,
        st.integers(0, 10**6),
        st.floats(0, 2e9),
        names,
        st.integers(0, 4),
        names,
        st.text("0123456789abcdef", min_size=64, max_size=64),
        st.dictionaries(texts, json_values, max_size=4),
    ),
}


def test_every_record_class_is_drawn():
    assert set(RECORDS) == set(RECORD_CLASSES)


@given(st.one_of(*RECORDS.values()))
def test_each_record_reads_back_as_itself(record):
    cls = type(record)
    assert cls.from_dict(record.to_dict()) == record
    assert cls.from_dict(json.loads(json.dumps(record.to_dict()))) == record
