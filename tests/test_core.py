"""Domain type invariants and the best-solution comparator."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from proofpipe.core import (
    CandidateSolution,
    FailureReason,
    FailureRecord,
    GradeReport,
    GradingRecord,
    Issue,
    Lemma,
    Origin,
    PipelineConfig,
    Polarity,
    Problem,
    STATE_EVENTS,
    RunState,
    Severity,
    best,
    comparator_key,
    rank,
)


def sol(id_, score, issues=0, text=None, graded=True):
    grade = None
    if graded:
        grade = GradeReport(
            score=score,
            issues=tuple(Issue(f"issue {i}", Severity.SLIP) for i in range(issues)),
        )
    return CandidateSolution(
        id=id_,
        problem_id="p",
        proof_text=text or f"proof text {id_}",
        origin=Origin.FRESH,
        phase=1,
        grade=grade,
    )


def fold(run_id, events):
    """The state of run ``run_id`` folded from ``events`` (trace events): each
    of its state events grows the memory that :data:`STATE_EVENTS` names by the
    item its payload stores, in order."""
    state = RunState(run_id)
    for event in events:
        if event.run_id == run_id and event.kind in STATE_EVENTS:
            state.grow(event.kind, STATE_EVENTS[event.kind][0].from_dict(event.payload))
    return state


class TestGradeReport:
    def test_rejects_score_five(self):
        with pytest.raises(ValueError):
            GradeReport(score=5)

    def test_rejects_perfect_with_issues(self):
        with pytest.raises(ValueError):
            GradeReport(score=7, issues=(Issue("gap", Severity.SLIP),))

    def test_fallacy_caps_above_three(self):
        with pytest.raises(ValueError):
            GradeReport(score=6, issues=(Issue("gap", Severity.FALLACY),))
        GradeReport(score=3, issues=(Issue("gap", Severity.FALLACY),))  # at the cap: fine

    def test_clean_perfect(self):
        assert GradeReport(score=7).clean_perfect
        assert not GradeReport(score=6).clean_perfect


class TestBest:
    def test_strict_max(self):
        assert best([sol("A", 6), sol("B", 7)]).id == "B"

    def test_tie_break_fewer_issues(self):
        assert best([sol("A", 6, issues=2), sol("B", 6, issues=1)]).id == "B"

    def test_tie_break_creation_ordered_id(self):
        # ids are zero-padded and allocated in creation order: the earlier wins
        assert best([sol("run1.s0001", 6), sol("run1.s0000", 6)]).id == "run1.s0000"
        assert best([sol("run2.s0000", 6), sol("run1.s0003", 6)]).id == "run1.s0003"

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="no candidates"):
            best([])

    def test_ungraded_errors(self):
        with pytest.raises(ValueError, match="ungraded"):
            best([sol("A", 7, graded=False)])

    @given(
        st.permutations(
            [
                ("A", 6, 2),
                ("B", 6, 1),
                ("C", 7, 0),
                ("D", 7, 0),
                ("E", 2, 0),
            ]
        )
    )
    def test_permutation_invariance(self, rows):
        pool = [sol(i, s, issues=n) for i, s, n in rows]
        assert best(pool).id == "C"  # score 7, created before D

    def test_rank_dedupes_by_text(self):
        a, b = sol("A", 6, text="same"), sol("B", 7, text="same")
        ordered = rank([a, b])
        assert [s.id for s in ordered] == ["B"]


class TestRoundTrips:
    def test_solution_roundtrip(self):
        s = sol("A", 6, issues=1)
        assert CandidateSolution.from_dict(s.to_dict()) == s

    def test_solution_from_older_checkpoint(self):
        s = sol("A", 6, issues=1)
        assert CandidateSolution.from_dict({**s.to_dict(), "cost_at_creation_micro": 12}) == s

    def test_lemma_validation_and_roundtrip(self):
        lem = Lemma("stmt", Polarity.NEGATIVE, "pf", g_pos=3, g_neg=7, pair_id="h1")
        assert Lemma.from_dict(lem.to_dict()) == lem
        with pytest.raises(ValueError):
            Lemma("stmt", Polarity.POSITIVE, "pf", g_pos=7, g_neg=7, pair_id="h1")
        with pytest.raises(ValueError):
            Lemma("stmt", Polarity.POSITIVE, "pf", g_pos=3, g_neg=7, pair_id="h1")

    def test_lemma_softer_threshold(self):
        lem = Lemma("stmt", Polarity.POSITIVE, "pf", g_pos=6, g_neg=2, pair_id="h1", threshold=6)
        assert lem.threshold == 6

    def test_problem_rejects_empty_statement(self):
        with pytest.raises(ValueError):
            Problem(id="x", statement="  ")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(token_budget=0)
        with pytest.raises(ValueError):
            PipelineConfig(solver_width=0)
        with pytest.raises(ValueError, match="retry_attempts"):
            PipelineConfig(retry_attempts=0)

    def test_grading_record_bounds(self):
        GradingRecord(human=0, predicted=7)
        with pytest.raises(ValueError):
            GradingRecord(human=8, predicted=3)
        with pytest.raises(ValueError):
            GradingRecord(human=3, predicted=7.5)


class TestRunState:
    def test_monotone_growth(self):
        """Each state event adds its item to its one memory, and folding the
        run's events grows a fresh state the same way."""
        from proofpipe.trace import RunTrace

        lemma = Lemma("s", Polarity.POSITIVE, "p", g_pos=7, g_neg=0, pair_id="h")
        failure = FailureRecord("h2", "c", FailureReason.AMBIGUOUS)
        solution = sol("r.s0000", 6, issues=1)
        state, trace = RunState("r"), RunTrace()
        for kind, item in (("pair_proven", lemma), ("pair_failed", failure), ("solution", solution), ("pair_proven", lemma)):
            state.grow(kind, item)
            trace.append("r", 2, kind, item.to_dict())
            trace.append("other", 2, kind, item.to_dict())  # another run's event
            trace.append("r", 2, "side_solved", {"pair_id": "h"})  # not a state event
        assert state.solution_memory == [solution]
        assert state.lemma_memory == [lemma, lemma]
        assert state.failure_context == [failure]
        assert fold("r", trace.events) == state


@given(st.integers(min_value=0, max_value=7).filter(lambda s: s != 5), st.integers(0, 3))
def test_comparator_total_order_consistency(score, issues):
    if score == 7 and issues:
        return
    a = sol("A", score, issues=issues)
    b = sol("B", score, issues=issues)
    assert comparator_key(a) < comparator_key(b)  # id is the final tie-break
