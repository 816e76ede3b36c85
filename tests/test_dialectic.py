"""Solve-branch shape, grader parsing, censor rules, acceptance gate."""
import pytest

from proofpipe.core import CandidateSolution, Origin, Problem, RunState, Severity
from proofpipe.dialectic import (
    DialecticEngine,
    EMPTY_CONTEXT,
    GradeParseFailure,
    SolveContext,
    parse_grade_transcript,
    split_issue_lines,
)
from proofpipe.gateway import BudgetExceeded, ScriptRule
from proofpipe.trace import RunTrace

from conftest import grader_text, make_gateway, rules_clean, small_config

PROBLEM = Problem(id="p1", statement="Prove that 1 + 1 = 2 in Peano arithmetic.")


def engine_for(rules, config=None, registry=None):
    config = config or small_config()
    gateway = make_gateway(rules, config)
    trace = RunTrace(clock=lambda: 0.0)
    return DialecticEngine(gateway, registry, config, trace, "run1"), trace


class TestGradeParsing:
    def test_clean_seven(self):
        report = parse_grade_transcript(grader_text(7))
        assert report.score == 7 and not report.issues and report.clean_perfect

    def test_fallacy_caps_score(self):
        raw = grader_text(6, issues=(("assumes the conclusion", "Fallacy"),))
        report = parse_grade_transcript(raw)
        assert report.score == 3
        assert any("capped" in n for n in report.notes)
        assert report.issues[0].severity is Severity.FALLACY

    def test_five_coerces_down(self):
        report = parse_grade_transcript(grader_text(5))
        assert report.score == 4
        assert any("disallowed" in n for n in report.notes)

    def test_seven_with_slip_demotes(self):
        raw = grader_text(7, issues=(("notation slip in step 2", "Slip"),))
        report = parse_grade_transcript(raw)
        assert report.score == 6 and not report.clean_perfect

    def test_last_anchor_wins(self):
        raw = "Final Grade: 3/7 was my first instinct.\n" + grader_text(6)
        assert parse_grade_transcript(raw).score == 6

    def test_untagged_issue_is_fallacy(self):
        raw = grader_text(4, issues=(("a gap with no tag", "Gap"),))
        report = parse_grade_transcript(raw)
        assert report.issues[0].severity is Severity.FALLACY

    def test_scaffolding_collected(self):
        raw = grader_text(6, issues=(("minor slip", "Slip"),), scaffolding=("What is a residue class?",))
        assert parse_grade_transcript(raw).scaffolding == ("What is a residue class?",)

    def test_no_anchor_raises(self):
        with pytest.raises(GradeParseFailure):
            parse_grade_transcript("the council deliberated but never concluded")


class TestCensor:
    def test_exact_no_issues(self, registry):
        engine, _ = engine_for(
            [ScriptRule("processor", None, [{"text": "NO_ISSUES"}])], registry=registry
        )
        assert engine.lazy_phrase_check("proof", phase=1, branch=0) == []

    def test_trims_whitespace(self, registry):
        engine, _ = engine_for(
            [ScriptRule("processor", None, [{"text": "  NO_ISSUES \n"}])], registry=registry
        )
        assert engine.lazy_phrase_check("proof", phase=1, branch=0) == []

    def test_two_bullets_two_issues(self, registry):
        engine, _ = engine_for(
            [ScriptRule("processor", None, [{"text": "- lazy phrase a\n- lazy phrase b"}])],
            registry=registry,
        )
        issues = engine.lazy_phrase_check("proof", phase=1, branch=0)
        assert issues == ["lazy phrase a", "lazy phrase b"]

    def test_wrong_case_is_one_opaque_issue(self, registry):
        engine, _ = engine_for(
            [ScriptRule("processor", None, [{"text": "no_issues "}])], registry=registry
        )
        assert engine.lazy_phrase_check("proof", phase=1, branch=0) == ["no_issues"]

    def test_empty_response_is_opaque_issue(self, registry):
        engine, _ = engine_for(
            [ScriptRule("processor", None, [{"text": "   "}])], registry=registry
        )
        assert len(engine.lazy_phrase_check("proof", phase=1, branch=0)) == 1


def branch_kinds(trace, branch=None):
    kinds = []
    for e in trace.events:
        if e.kind in ("draft", "censor", "grade", "refine", "regrade") and (
            branch is None or e.payload.get("branch") == branch
        ):
            kinds.append(e.kind)
    return kinds


class TestDialecticSolve:
    def test_clean_branch_shape(self, registry):
        engine, trace = engine_for(rules_clean(), config=small_config(solver_width=1), registry=registry)
        out = engine.dialectic_solve(PROBLEM, EMPTY_CONTEXT, phase=1, origin=Origin.FRESH)
        assert len(out) == 1
        assert out[0].grade.score == 7 and out[0].origin is Origin.FRESH
        assert branch_kinds(trace) == ["draft", "censor", "grade", "refine", "regrade"]

    def test_lazy_draft_costs_exactly_one_redraft(self, registry):
        rules = [
            ScriptRule(
                "solver",
                None,
                [
                    {"text": "it is clear that the claim holds"},
                    {"text": "CLEAN: full derivation, each step explicit"},
                    {"text": "CLEAN: full derivation, each step explicit"},
                ],
                repeat_last=True,
            ),
            ScriptRule(
                "processor",
                None,
                [{"text": '- lazy phrase "it is clear that" detected'}, {"text": "NO_ISSUES"}],
                repeat_last=True,
            ),
            ScriptRule("grader", None, [{"text": grader_text(6, issues=(("small slip", "Slip"),))}], repeat_last=True),
        ]
        engine, trace = engine_for(rules, config=small_config(solver_width=1), registry=registry)
        out = engine.dialectic_solve(PROBLEM, EMPTY_CONTEXT, phase=1, origin=Origin.FRESH)
        assert branch_kinds(trace) == ["draft", "censor", "draft", "grade", "refine", "regrade"]
        # exactly 2 draft (solver) calls, 1 processor, 2 grader-kind, 1 refine
        assert branch_kinds(trace).count("draft") == 2
        assert out[0].proof_text.startswith("CLEAN")
        # the redraft prompt carried the literal corrective feedback
        redraft = trace.of_kind("draft")[1].payload
        assert "Derive explicitly" in registry.render(redraft["role"], redraft["slots"])

    def test_count_four_gives_four_lanes(self, registry):
        engine, trace = engine_for(rules_clean(), config=small_config(solver_width=4), registry=registry)
        out = engine.dialectic_solve(PROBLEM, EMPTY_CONTEXT, phase=1, origin=Origin.FRESH)
        assert len(out) == 4
        assert [s.id for s in out] == sorted(s.id for s in out)  # ordered by branch index
        for b in range(4):
            assert branch_kinds(trace, branch=b) == ["draft", "censor", "grade", "refine", "regrade"]

    def test_determinism_same_script_same_output(self, registry):
        def run():
            engine, _ = engine_for(rules_clean(), config=small_config(solver_width=2), registry=registry)
            out = engine.dialectic_solve(PROBLEM, EMPTY_CONTEXT, phase=1, origin=Origin.FRESH)
            return [(s.id, s.proof_text, s.grade.score) for s in out]

        assert run() == run()

    def test_context_serialization_is_stable(self):
        ctx = SolveContext(feedback=("b", "a"))
        assert ctx.render() == ctx.render()
        assert EMPTY_CONTEXT.render() == ""

    def test_budget_exhaustion_surfaces_partials(self, registry):
        """The branches that completed before the budget ran out are in the
        run's state, each as its recorded solution event, once the budget
        exhaustion is raised."""
        config = small_config(token_budget=9000, max_output_tokens=2048, solver_width=4)
        engine, trace = engine_for(rules_clean(), config=config, registry=registry)
        engine.state = RunState("run1")
        with pytest.raises(BudgetExceeded):
            engine.dialectic_solve(PROBLEM, EMPTY_CONTEXT, phase=1, origin=Origin.FRESH)
        recorded = [CandidateSolution.from_dict(e.payload) for e in trace.of_kind("solution")]
        assert recorded  # at least one branch completed before the budget died
        assert engine.state.solution_memory == recorded


class TestVerifiedSuccess:
    def _engine(self, rules, registry):
        """One branch, then the gate's three check grades."""
        return engine_for(rules, config=small_config(solver_width=1, verify_repeats=3), registry=registry)

    def _solution(self, engine):
        return engine.dialectic_solve(PROBLEM, EMPTY_CONTEXT, phase=1, origin=Origin.FRESH)[0]

    def test_three_sevens_pass_exactly_three_checks(self, registry):
        engine, trace = self._engine(rules_clean(), registry)
        solution = self._solution(engine)
        assert engine.verified_success(solution, PROBLEM)
        assert trace.count("check_grade") == 3

    def _checks(self, trace, solution):
        checks = trace.of_kind("check_grade")
        assert [e.payload["ordinal"] for e in checks] == [0, 1, 2]
        assert all(e.payload["slots"]["solution"] == solution.proof_text for e in checks)
        return [e.payload["score"] for e in checks]

    def test_six_blocks_and_every_grade_is_made(self, registry):
        rules = rules_clean()
        # branch grades (2 calls) then checks: 7, 6, 7; the 6 blocks the gate,
        # and the grade after it is still made
        rules[2] = ScriptRule(
            "grader",
            None,
            [
                {"text": grader_text(7)},
                {"text": grader_text(7)},
                {"text": grader_text(7)},
                {"text": grader_text(6, issues=(("late slip", "Slip"),))},
                {"text": grader_text(7)},
            ],
            repeat_last=True,
        )
        engine, trace = self._engine(rules, registry)
        solution = self._solution(engine)
        assert not engine.verified_success(solution, PROBLEM)
        assert self._checks(trace, solution) == [7, 6, 7]

    def test_seven_with_slip_blocks(self, registry):
        rules = rules_clean()
        rules[2] = ScriptRule(
            "grader",
            None,
            [
                {"text": grader_text(7)},
                {"text": grader_text(7)},
                {"text": grader_text(7, issues=(("tiny slip", "Slip"),))},
            ],
            repeat_last=True,
        )
        engine, trace = self._engine(rules, registry)
        solution = self._solution(engine)
        assert not engine.verified_success(solution, PROBLEM)
        assert self._checks(trace, solution) == [6, 6, 6]  # each slipped 7 is demoted


def test_split_issue_lines_variants():
    text = "- one\n* two\n3. three\n4) four\nplain prose\n• five"
    assert split_issue_lines(text) == ["one", "two", "three", "four", "five"]


def test_parallel_branches_ordered_by_index(registry):
    config = small_config(solver_width=3)
    gateway = make_gateway(rules_clean(), config)
    trace = RunTrace(clock=lambda: 0.0)
    engine = DialecticEngine(gateway, registry, config, trace, "run1")
    out = engine.dialectic_solve(PROBLEM, EMPTY_CONTEXT, phase=1, origin=Origin.FRESH)
    assert len(out) == 3
    assert all(s.grade.score == 7 for s in out)
    branches = {e.payload["branch"] for e in trace.of_kind("draft")}
    assert branches == {0, 1, 2}
