"""Acceptance suite: the nine exit criteria, one test each.

Everything runs against the deterministic scripted backend; each test
prints a single PASS line (visible with ``pytest -s`` or on failure).
"""
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from proofpipe.conjecture import ParseError, classify, parse_conjectures
from proofpipe.core import Origin, Problem
from proofpipe.dialectic import DialecticEngine, EMPTY_CONTEXT
from proofpipe.gateway import (
    CostLedger,
    Price,
    ScriptRule,
    Usage,
    cost_of,
    estimate_max_budget,
)
from proofpipe.metrics import bucketize, compute_metrics
from proofpipe.orchestrator import (
    STATUS_BEST_EFFORT,
    STATUS_BUDGET_EXHAUSTED,
    STATUS_VERIFIED,
    Orchestrator,
    extract_decision,
)
from proofpipe.trace import RunTrace

from conftest import (
    BREAKTHROUGH_TEXT,
    PLATEAU_TEXT,
    grader_text,
    make_gateway,
    parser_json,
    rules_well,
    small_config,
    well_problem,
)
from test_metrics import FIXTURE, ORACLE


def test_criterion_1_bisection_truth_table():
    """Exhaustive (g_pos, g_neg) grid classifies per the three-branch rule."""
    start = time.monotonic()
    tau = 7
    for g_pos in range(8):
        for g_neg in range(8):
            verdict = classify(g_pos, g_neg, tau)
            if g_pos >= tau and g_neg < tau:
                assert verdict == "positive"
            elif g_neg >= tau and g_pos < tau:
                assert verdict == "negative"
            else:
                assert verdict == "ambiguous"
            # mutual exclusion: one verdict only, never both sides proven
            assert verdict in ("positive", "negative", "ambiguous")
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: 64-cell truth table exact, no double-proofs ({elapsed:.3f}s)")


def _call_shape_scenarios():
    """12 scripted branch scenarios varying laziness, grades and issues."""
    scenarios = []
    for lazy in (False, True):
        for score, issues in ((7, ()), (6, (("slip in step 2", "Slip"),)),
                              (4, (("missing case", "Fallacy"),)),
                              (2, (("unsupported claim", "Fallacy"), ("bad bound", "Slip")))):
            if lazy:
                solver_responses = [
                    {"text": "it is clear that the result holds"},
                    {"text": f"EXPANDED PROOF for {score}"},
                    {"text": f"EXPANDED PROOF for {score}"},
                ]
                processor = [{"text": '- lazy phrase "it is clear" found'}, {"text": "NO_ISSUES"}]
            else:
                solver_responses = [{"text": f"DIRECT PROOF for {score}"}]
                processor = [{"text": "NO_ISSUES"}]
            scenarios.append(
                (
                    lazy,
                    [
                        ScriptRule("solver", None, solver_responses, repeat_last=True),
                        ScriptRule("processor", None, processor, repeat_last=True),
                        ScriptRule("grader", None, [{"text": grader_text(score, issues)}], repeat_last=True),
                    ],
                )
            )
    for score in (3, 6):  # wrong-case censor output still forces one re-draft
        scenarios.append(
            (
                True,
                [
                    ScriptRule("solver", None, [{"text": "draft"}, {"text": "redraft"}, {"text": "redraft"}], repeat_last=True),
                    ScriptRule("processor", None, [{"text": "no_issues"}, {"text": "NO_ISSUES"}], repeat_last=True),
                    ScriptRule("grader", None, [{"text": grader_text(score, (("gap", "Slip"),) if score != 7 else ())}], repeat_last=True),
                ],
            )
        )
    return scenarios


def test_criterion_2_branch_call_shape(registry):
    """Every branch: 1-2 drafts, 1 censor, grade, refine, regrade, in order."""
    scenarios = _call_shape_scenarios()
    assert len(scenarios) >= 10
    problem = Problem(id="shape", statement="Prove the toy identity.")
    for idx, (lazy, rules) in enumerate(scenarios):
        config = small_config(solver_width=1)
        gateway = make_gateway(rules, config)
        trace = RunTrace(clock=lambda: 0.0)
        engine = DialecticEngine(gateway, registry, config, trace, f"run{idx}")
        engine.dialectic_solve(problem, EMPTY_CONTEXT, phase=1, origin=Origin.FRESH)
        kinds = [
            e.kind for e in trace.events if e.kind in ("draft", "censor", "grade", "refine", "regrade")
        ]
        drafts = kinds.count("draft")
        assert drafts == (2 if lazy else 1), (idx, kinds)
        assert kinds.count("censor") == 1
        assert kinds.count("grade") + kinds.count("regrade") == 2
        assert kinds.count("refine") == 1
        expected = (
            ["draft", "censor", "draft", "grade", "refine", "regrade"]
            if lazy
            else ["draft", "censor", "grade", "refine", "regrade"]
        )
        assert kinds == expected, (idx, kinds)
    print(f"PASS criterion 2: branch call shape exact on {len(scenarios)} scripted scenarios")


def test_criterion_3_verified_success_gate(registry):
    """Acceptance iff 3 consecutive clean 7s of identical text; mutations block."""
    problem = Problem(id="gate", statement="Prove the toy identity.")

    def gate(check_grades):
        rules = [
            ScriptRule("solver", None, [{"text": "CANDIDATE"}], repeat_last=True),
            ScriptRule("processor", None, [{"text": "NO_ISSUES"}], repeat_last=True),
            ScriptRule(
                "grader",
                None,
                [{"text": grader_text(7)}, {"text": grader_text(7)}]  # branch grade + regrade
                + [{"text": g} for g in check_grades],
                repeat_last=True,
            ),
        ]
        config = small_config(solver_width=1, verify_repeats=3)
        gateway = make_gateway(rules, config)
        trace = RunTrace(clock=lambda: 0.0)
        engine = DialecticEngine(gateway, registry, config, trace, "gate")
        solution = engine.dialectic_solve(problem, EMPTY_CONTEXT, phase=1, origin=Origin.FRESH)[0]
        accepted = engine.verified_success(solution, problem)
        checks = trace.of_kind("check_grade")
        return accepted, checks, solution

    clean = grader_text(7)
    six = grader_text(6, issues=(("late gap", "Slip"),))
    slipped_seven = grader_text(7, issues=(("hidden slip", "Slip"),))  # demoted to 6 by the parser

    accepted, checks, solution = gate([clean, clean, clean])
    assert accepted and len(checks) == 3
    assert all(
        e.payload["score"] == 7 and e.payload["issue_count"] == 0 and e.payload["slots"]["solution"] == solution.proof_text
        for e in checks
    )
    for position in (0, 1, 2):
        for mutant in (six, slipped_seven):
            grades = [clean, clean, clean]
            grades[position] = mutant
            accepted, checks, solution = gate(grades)
            assert not accepted, (position, mutant[:30])
            # A miss does not stop its siblings: all N grades judge the exact text.
            assert [e.payload["ordinal"] for e in checks] == [0, 1, 2]
            assert all(e.payload["slots"]["solution"] == solution.proof_text for e in checks)
            assert [e.payload["score"] for e in checks] == [6 if k == position else 7 for k in range(3)]
    print("PASS criterion 3: triple-clean gate accepts; 6/slip mutations at positions 1-3 all block")


def test_criterion_4_cognitive_well_escape(registry):
    """Conjectures escape the well; the ablated pipeline stays at 6."""
    start = time.monotonic()
    config_full = small_config(conjecture_iterations=2)
    gateway_full = make_gateway(rules_well(), config_full)
    full = Orchestrator(gateway_full, registry, config_full).run(
        well_problem(), trace=RunTrace(clock=lambda: 0.0)
    )
    assert full.status == STATUS_VERIFIED
    assert full.solution.proof_text == BREAKTHROUGH_TEXT
    assert any(l.polarity.value == "negative" for l in full.state.lemma_memory)

    config_ablated = small_config(conjecture_iterations=0)
    gateway_ablated = make_gateway(rules_well(), config_ablated)
    ablated = Orchestrator(gateway_ablated, registry, config_ablated).run(
        well_problem(), trace=RunTrace(clock=lambda: 0.0)
    )
    assert ablated.status == STATUS_BEST_EFFORT
    assert ablated.solution.grade.score == 6
    assert ablated.solution.proof_text == PLATEAU_TEXT
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(
        "PASS criterion 4: full pipeline verified via negative lemma; "
        f"ablated run stuck at 6 ({elapsed:.2f}s)"
    )


def test_criterion_5_cost_arithmetic():
    """Reference estimate exact; 1000 random ledger entries, zero drift."""
    assert estimate_max_budget(32_000, 2, 30, 100, 10) == Decimal("1920")

    rng = random.Random(20260808)
    ledger = CostLedger()
    oracle = Fraction(0)
    rates = ["10", "1.25", "0.42", "2.50", "0.30"]
    for i in range(1000):
        tin, tout = rng.randrange(0, 10**6), rng.randrange(0, 10**6)
        rate_in, rate_out = rng.choice(rates), rng.choice(rates)
        usage = Usage(tin, tout, rng.randrange(0, 10**4))
        usd = cost_of(usage, Price(Decimal(rate_in), Decimal(rate_out)))
        ledger.append(f"run{i % 2 + 1}", "solver", "b", usage, usd)
        oracle += Fraction(tin) * Fraction(rate_in) / 10**6 + Fraction(tout) * Fraction(rate_out) / 10**6
    total = ledger.grand_total()
    assert Fraction(str(total)) == oracle
    assert total == sum((e.usd for e in ledger.entries), Decimal(0))
    by_run = ledger.total_by_run()
    assert sum(by_run.values(), Decimal(0)) == total
    print(f"PASS criterion 5: estimate = $1920 exactly; 1000-entry ledger drift-free (total ${total})")


def test_criterion_6_metrics_oracle():
    """20-record fixture equals the pre-computed brute-force oracle."""
    report = compute_metrics(FIXTURE)
    assert report.acc == ORACLE["acc"]
    assert report.mae == ORACLE["mae"]
    assert report.fpr == ORACLE["fpr"]
    assert report.fnr == ORACLE["fnr"]
    assert report.merged_acc == ORACLE["merged_acc"]
    assert report.confusion == ORACLE["confusion"]
    assert [bucketize(s) for s in range(8)] == [0, 1, 1, 1, 6, 6, 6, 7]
    print(
        "PASS criterion 6: acc/mae/fpr/fnr/confusion match the oracle exactly; "
        "bucket map exact on all 8 scores"
    )


def test_criterion_7_parser_robustness():
    """Strict-JSON conjecture contract and judge-tag extraction corpora."""
    good = parser_json(["c1", "c2"], ["n1", "n2"], "pf")
    fenced = "```json\n" + good + "\n```"
    prose = "Here you go:\n" + good + "\nLet me know!"
    for raw in (good, fenced, prose):
        parsed = parse_conjectures(raw)
        assert parsed.conjectures == ("c1", "c2")
    with pytest.raises(ParseError):
        parse_conjectures(parser_json(["a", "b", "c"], ["x", "y"]))  # length mismatch
    with pytest.raises(ParseError):
        parse_conjectures("not json at all")
    empty = parse_conjectures('{"conjectures": [], "negations": [], "proof": ""}')
    assert empty.conjectures == () and empty.negations == ()

    judge_cases = [
        ("<decision>A</decision>", "A"),
        ("text\n<decision>B</decision>", "B"),
        ("<decision>A</decision> mid, final:\n<decision>B</decision>", "B"),
        ("<decision>B</decision>...<decision>A</decision>", "A"),
        ("no tag", None),
        ("<decision>C</decision>", None),
        ("<decision>a</decision>", None),
        ("<decision> B </decision>", None),
        ("<decision>A</decision><decision>A</decision>", "A"),
        ("long analysis\n<decision>B</decision>\n", "B"),
    ]
    assert len(judge_cases) == 10
    for text, expected in judge_cases:
        assert extract_decision(text) == expected, text
    print("PASS criterion 7: conjecture JSON contract enforced; judge tag corpus (10/10) exact")


def test_criterion_8_replay_determinism(registry):
    """Checkpoint + resume at every boundary reproduces text and ledger."""
    from conftest import rules_all_twos

    scenarios = [
        (rules_well, well_problem(), small_config(initial_iterations=2, conjecture_iterations=2)),
        # traverses every phase: 1, two outer 2/3 rounds, then 4
        (
            rules_all_twos,
            Problem(id="deep", statement="Prove the toy identity."),
            small_config(initial_iterations=2, conjecture_iterations=2),
        ),
    ]
    total_boundaries = 0
    for make_rules, problem, config in scenarios:
        gateway = make_gateway(make_rules(), config)
        original = Orchestrator(gateway, registry, config).run(
            problem, trace=RunTrace(clock=lambda: 0.0)
        )
        baseline_ledger = gateway.ledger.to_dict()
        boundaries = [c for c in original.trace.checkpoints if not c.endswith(".final")]
        assert boundaries
        total_boundaries += len(boundaries)
        for checkpoint_id in boundaries:
            fresh_gateway = make_gateway(make_rules(), config)
            orch = Orchestrator(fresh_gateway, registry, config)
            resumed = orch.resume(original.trace, checkpoint_id)
            assert resumed.solution.proof_text == original.solution.proof_text, checkpoint_id
            assert fresh_gateway.ledger.to_dict() == baseline_ledger, checkpoint_id
    print(
        f"PASS criterion 8: resume at {total_boundaries} phase boundaries across 2 scenarios "
        "reproduces identical final text and ledger"
    )


def test_criterion_9_budget_safety(registry):
    """Random tiny budgets: graceful wind-down, bounded overshoot."""
    rng = random.Random(7)
    budgets = [1, 5] + [rng.randrange(100, 20_000) for _ in range(8)]
    for budget in budgets:
        config = small_config(token_budget=budget)
        gateway = make_gateway(rules_well(), config)
        result = Orchestrator(gateway, registry, config).run(
            well_problem(), trace=RunTrace(clock=lambda: 0.0)
        )
        assert result.status in (STATUS_BUDGET_EXHAUSTED, STATUS_VERIFIED)
        assert gateway.tokens_consumed <= budget + config.max_output_tokens, budget
        assert result.trace.of_kind("result"), budget
        if result.status == STATUS_BUDGET_EXHAUSTED and result.solution is not None:
            assert result.solution.grade is not None  # best partial is a graded solution
    print(f"PASS criterion 9: {len(budgets)} tiny budgets wind down with bounded overshoot")
