"""One failure policy: a failed model call ends only the unit that made it.

The regression tests each break one unit with one kind of failed call and
check that the run still returns, records the failure on the failed call's
own event, keeps its ledger whole and resumes to the same result. The property test mixes backend
failures and garbage replies into whole scripts and checks the pipeline's
invariants on every run.
"""
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from proofpipe.core import CandidateSolution, Origin
from proofpipe.dialectic import DialecticEngine
from proofpipe.gateway import DEFAULT_PRICES, BackendFailure, ScriptedBackend, ScriptRule, Usage
from proofpipe.orchestrator import (
    STATUS_BEST_EFFORT,
    STATUS_VERIFIED,
    Orchestrator,
    PipelineResult,
    call_ceilings,
    ledger_from_trace,
    replay,
)
from proofpipe.prompts import PromptRegistry
from proofpipe.trace import RunTrace, is_call, signature

from conftest import (
    clean_problem,
    grader_text,
    make_gateway,
    parser_json,
    rules_all_twos,
    rules_clean,
    rules_well,
    small_config,
    well_problem,
)
from test_concurrency import Unscripted, cut, gateway_for, rules_two_run_judge

GARBAGE = "%% the reply was cut off mid-sentence and carries no verdict %%"
FAIL = {"fail": True}


def solve(make_rules, config, problem, registry):
    gateway = make_gateway(make_rules(), config)
    orch = Orchestrator(gateway, registry, config)
    return orch.run(problem, trace=RunTrace(clock=lambda: 0.0)), gateway


def assert_resumes(make_rules, config, result, gateway, registry):
    """Resuming from every checkpoint, the last one included, reproduces the
    run's recorded text and the ledger of every run: every run runs again,
    with no judge."""
    trace = result.trace
    entries = [e.to_dict() for e in gateway.ledger.entries if e.run_id != "aggregate"]
    texts = {e.run_id: e.payload["proof_text"] for e in trace.of_kind("result")}
    assert trace.checkpoints
    for checkpoint_id, marker in trace.checkpoints.items():
        run_id = marker["state"]["run_id"]
        fresh = make_gateway(make_rules(), config)
        resumed = Orchestrator(fresh, registry, config).resume(trace, checkpoint_id)
        assert (resumed.solution.proof_text if resumed.solution else None) == texts[run_id], checkpoint_id
        assert [e.to_dict() for e in fresh.ledger.entries] == entries, checkpoint_id


def failures(trace, kind):
    """The payloads of the ``kind`` events that record a failure: each call
    event that holds an ``error`` or a ``parse_error``, and every event of a
    kind that is not a call's."""
    return [
        e.payload for e in trace.of_kind(kind)
        if "role" not in e.payload or "error" in e.payload or "parse_error" in e.payload
    ]


def assert_degraded(make_rules, config, problem, registry, failure_kind):
    """Run the scenario; check it returned, recorded a failure as a
    ``failure_kind`` event (:func:`failures`) and kept its ledger whole; a
    call that failed in the backend holds no ``response`` and no ``usage``.
    Return the result and the recorded failures."""
    result, gateway = solve(make_rules, config, problem, registry)
    assert isinstance(result, PipelineResult)
    failed = failures(result.trace, failure_kind)
    assert failed
    assert all(not {"response", "usage"} & f.keys() for f in failed if "error" in f)
    assert gateway.ledger.total_tokens() == gateway.tokens_consumed
    assert ledger_from_trace(result.trace, DEFAULT_PRICES).to_dict() == gateway.ledger.to_dict()
    assert_resumes(make_rules, config, result, gateway, registry)
    return result, failed


def solution_ids(trace):
    return [e.payload["id"] for e in trace.of_kind("solution")]


def replace_rule(rules, role, responses):
    """``rules`` with the first rule of ``role`` answering ``responses`` first."""
    out = list(rules)
    i = next(i for i, r in enumerate(out) if r.role == role)
    out[i] = ScriptRule(role, out[i].match, responses + out[i].responses, repeat_last=True)
    return out


class TestOneUnitFails:
    def test_unparseable_main_branch_grade_drops_the_branch(self, registry):
        # Branch 0's first grade is garbage; branch 1 verifies.
        make_rules = lambda: replace_rule(rules_clean(), "grader", [{"text": GARBAGE}])
        result, failed = assert_degraded(make_rules, small_config(), clean_problem(), registry, "grade")
        assert [(f["branch"], f["parse_error"]) for f in failed] == [(0, "no Final Grade anchor in grader output")]
        assert "score" not in failed[0]
        assert result.status == STATUS_VERIFIED
        assert [s.id for s in result.state.solution_memory] == ["run1.s0001"]
        assert solution_ids(result.trace) == ["run1.s0001"]

    def test_unparseable_verify_gate_grade_fails_the_gate(self, registry):
        # One branch grades 7 twice inline; its first check grade is garbage.
        # The empty extraction leads to a phase-3 round that verifies.
        make_rules = lambda: replace_rule(
            rules_clean()
            + [
                ScriptRule("extractor", None, [{"text": "nothing load-bearing"}], repeat_last=True),
                ScriptRule("parser", None, [{"text": parser_json([], [])}], repeat_last=True),
            ],
            "grader",
            [{"text": grader_text(7)}, {"text": grader_text(7)}, {"text": GARBAGE}],
        )
        config = small_config(solver_width=1)
        result, failed = assert_degraded(make_rules, config, clean_problem(), registry, "verify_failed")
        assert failed == [{"solution_id": "run1.s0000"}]
        first_check = result.trace.of_kind("check_grade")[0].payload
        assert first_check["parse_error"] == "no Final Grade anchor in grader output"
        assert first_check["solution_id"] == "run1.s0000"
        assert result.status == STATUS_VERIFIED
        assert result.solution.id == "run1.s0001"

    def test_backend_failure_in_verify_gate_fails_the_gate(self, registry):
        # As above, but the first check grade's backend call fails on every
        # retry: its event records the error.
        make_rules = lambda: replace_rule(
            rules_clean()
            + [
                ScriptRule("extractor", None, [{"text": "nothing load-bearing"}], repeat_last=True),
                ScriptRule("parser", None, [{"text": parser_json([], [])}], repeat_last=True),
            ],
            "grader",
            [{"text": grader_text(7)}, {"text": grader_text(7)}, FAIL, FAIL, FAIL],
        )
        config = small_config(solver_width=1)
        result, failed = assert_degraded(make_rules, config, clean_problem(), registry, "check_grade")
        assert [(f["solution_id"], f["ordinal"]) for f in failed] == [("run1.s0000", 0)]
        assert failed[0]["error"].startswith("BackendFailure: backend failed after 3 attempts")
        assert [e.payload for e in result.trace.of_kind("verify_failed")] == [{"solution_id": "run1.s0000"}]
        assert result.status == STATUS_VERIFIED
        assert result.solution.id == "run1.s0001"

    def test_solver_backend_failure_drops_the_branch(self, registry):
        make_rules = lambda: replace_rule(rules_clean(), "solver", [FAIL] * 3)
        result, failed = assert_degraded(make_rules, small_config(), clean_problem(), registry, "draft")
        assert [f["branch"] for f in failed] == [0]
        assert failed[0]["error"].startswith("BackendFailure: backend failed after 3 attempts")
        assert result.status == STATUS_VERIFIED
        assert result.solution.id == "run1.s0001"
        assert solution_ids(result.trace) == ["run1.s0001"]

    def test_missing_processor_rule_drops_every_branch(self, registry):
        make_rules = lambda: [r for r in rules_clean() if r.role != "processor"]
        result, failed = assert_degraded(make_rules, small_config(), clean_problem(), registry, "censor")
        # Two branches in phase 1 and in each of the two phase-3 rounds.
        assert [e.phase for e in result.trace.of_kind("censor")] == [1, 1, 3, 3, 3, 3]
        assert len(failed) == 6
        assert all(f["error"].startswith("ScriptError: no scripted response for role='processor'") for f in failed)
        assert solution_ids(result.trace) == []
        assert result.trace.count("extract_skipped") == 2
        assert result.status == STATUS_BEST_EFFORT
        assert result.solution is None

    def test_extractor_backend_failure_loses_only_its_iteration(self, registry):
        make_rules = lambda: replace_rule(rules_all_twos(), "extractor", [FAIL] * 3)
        result, failed = assert_degraded(make_rules, small_config(), clean_problem(), registry, "extract")
        assert len(failed) == 1
        assert failed[0]["error"].startswith("BackendFailure: backend failed after 3 attempts")
        assert result.trace.of_kind("extract")[0].payload is failed[0]
        # The failed iteration still runs its guided round; the second outer
        # iteration and both phase-4 sessions extract again.
        phases = [(e.payload["phase"], e.payload.get("iteration")) for e in result.trace.of_kind("phase_start")]
        assert phases == [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (4, None)]
        assert result.trace.count("extract") == 4
        assert result.trace.count("extract_parse") == 3  # the failed extraction is not parsed
        assert result.trace.count("pair_failed") == 3
        assert result.status == STATUS_BEST_EFFORT

    def test_phase_four_extraction_failure_loses_only_its_session(self, registry):
        # Both outer iterations extract; phase 4's first session fails on
        # every retry, and its second extracts again.
        extracted = {"text": "One conjecture identified."}
        make_rules = lambda: replace_rule(rules_all_twos(), "extractor", [extracted, extracted] + [FAIL] * 3)
        result, failed = assert_degraded(make_rules, small_config(), clean_problem(), registry, "extract")
        assert len(failed) == 1
        assert failed[0]["error"].startswith("BackendFailure: backend failed after 3 attempts")
        events = result.trace.events
        first, second = [i for i, e in enumerate(events) if e.kind == "enhance_session"]
        assert [e.payload for e in events[first + 1 : second]] == failed  # session 1 holds only its failed call
        session_two = [e.kind for e in events[second + 1 :]]
        assert session_two.count("extract") == 1
        assert session_two.count("side_solved") == 2
        assert session_two.count("pair_failed") == 1
        assert [e.phase for e in result.trace.of_kind("extract")] == [2, 2, 4, 4]
        assert result.status == STATUS_BEST_EFFORT

    def test_judge_backend_failure_falls_back_to_the_comparator(self, registry):
        make_rules = lambda: rules_clean() + [ScriptRule("judge", None, [FAIL], repeat_last=True)]
        config = small_config(parallel_runs=2)
        result, failed = assert_degraded(make_rules, config, clean_problem(), registry, "judge_fallback")
        assert len(failed) == 1
        assert failed[0]["reason"].startswith("BackendFailure: backend failed after 3 attempts")
        # The failed call is not re-prompted: one judge event, which holds the error.
        assert failures(result.trace, "judge") == [e.payload for e in result.trace.of_kind("judge")]
        assert [e.payload["error"] for e in result.trace.of_kind("judge")] == [failed[0]["reason"]]
        # Both finished runs survive; equal finals keep the earlier one.
        assert result.status == STATUS_VERIFIED
        assert result.state.run_id == "run1"
        assert [e.run_id for e in result.trace.of_kind("result")] == ["run1", "run2", "aggregate"]

    def test_phase_four_round_with_every_branch_failed_keeps_the_incumbent(self, registry):
        # Only phase-4 drafts carry both the check grades' issue and the
        # unresolved conjecture in their feedback; every one of them fails.
        phase4_draft = ["Unresolved conjecture", "- **Fallacy**: the main claim is unsupported"]
        make_rules = lambda: [ScriptRule("solver", phase4_draft, [FAIL], repeat_last=True)] + rules_all_twos()
        result, failed = assert_degraded(make_rules, small_config(), clean_problem(), registry, "draft")
        assert [(e.phase, e.payload["branch"]) for e in result.trace.of_kind("draft") if "error" in e.payload] == [(4, 0), (4, 1)]
        assert all(f["error"].startswith("BackendFailure") for f in failed)
        assert not [e for e in result.trace.of_kind("solution") if e.phase == 4]
        incumbent = result.trace.of_kind("check_grade", run_id="run1")[-1].payload["solution_id"]
        assert result.status == STATUS_BEST_EFFORT
        assert result.solution.id == incumbent

    def test_failed_independent_grade_counts_as_zero(self, registry):
        config = small_config(verify_repeats=2)
        gateway = make_gateway([ScriptRule("grader", None, [{"text": GARBAGE}, FAIL], repeat_last=True)], config)
        dialectic = DialecticEngine(gateway, registry, config, RunTrace(clock=lambda: 0.0), "run1")
        seed = CandidateSolution(id="run1.s0000", problem_id="clean-1", proof_text="SKETCH", origin=Origin.FRESH, phase=4)
        reports = dialectic.grade_independent(seed, clean_problem(), phase=4)
        assert [r.score for r in reports] == [0, 0]
        assert reports[0].notes == ("GradeParseFailure: no Final Grade anchor in grader output",)
        assert reports[1].notes[0].startswith("BackendFailure: backend failed after 3 attempts")
        checks = [e.payload for e in dialectic.trace.of_kind("check_grade")]
        assert [(c["solution_id"], c["ordinal"]) for c in checks] == [("run1.s0000", 0), ("run1.s0000", 1)]
        assert "GradeParseFailure: " + checks[0]["parse_error"] == reports[0].notes[0]
        assert checks[1]["error"] == reports[1].notes[0]
        assert not {"response", "usage"} & checks[1].keys()


# -- fault injection ------------------------------------------------------------

REGISTRY = PromptRegistry.load()

SCENARIOS = {
    "clean": (rules_clean, clean_problem),
    "well": (rules_well, well_problem),
    "all_twos": (rules_all_twos, clean_problem),
}

JUDGE = ScriptRule("judge", None, [{"text": "<decision>B</decision>"}], repeat_last=True)


def faulty(rules, faults):
    """Each rule answers its faults first, then its own replies: ``ok`` is
    the rule's reply, ``fail`` a backend error, ``garbage`` unusable text."""
    out = []
    for rule, prefix in zip(rules, faults):
        ok = rule.responses[0]
        entries = [{"ok": ok, "fail": FAIL, "garbage": {"text": GARBAGE}}[f] for f in prefix]
        out.append(ScriptRule(rule.role, rule.match, entries + rule.responses, repeat_last=True))
    return out


@st.composite
def fault_cases(draw):
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    runs = draw(st.integers(1, 2))
    base = SCENARIOS[name][0]() + ([JUDGE] if runs == 2 else [])
    faults = [draw(st.lists(st.sampled_from(["ok", "fail", "garbage"]), max_size=6)) for _ in base]
    budget = draw(st.one_of(st.just(10_000_000), st.integers(1, 200_000)))
    retries = draw(st.integers(1, 3))
    strict = draw(st.booleans())
    config = small_config(parallel_runs=runs, token_budget=budget, retry_attempts=retries, strict_budget=strict)
    return name, faults, config


def clean_run(checks: list, n: int, text: str) -> bool:
    """True iff ``checks`` holds ``n`` consecutive clean 7s, ordinals 0..n-1, on ``text``."""
    for start in range(len(checks) - n + 1):
        window = checks[start : start + n]
        if all(
            c.get("score") == 7 and c.get("issue_count") == 0 and c["slots"]["solution"] == text and c["ordinal"] == i
            for i, c in enumerate(window)
        ):
            return True
    return False


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fault_cases())
def test_injected_faults_never_crash_a_run(case):
    name, faults, config = case
    make_rules, make_problem = SCENARIOS[name]
    base = make_rules() + ([JUDGE] if config.parallel_runs == 2 else [])
    result, gateway = solve(lambda: faulty(base, faults), config, make_problem(), REGISTRY)
    trace = result.trace

    assert isinstance(result, PipelineResult)
    counts: dict[str, int] = {}
    for e in gateway.ledger.entries:
        counts[e.role] = counts.get(e.role, 0) + 1
    ceilings = call_ceilings(config, runs=config.parallel_runs)
    assert all(count <= ceilings[role] for role, count in counts.items()), counts
    assert gateway.ledger.total_tokens() == gateway.tokens_consumed
    assert ledger_from_trace(trace, DEFAULT_PRICES).to_dict() == gateway.ledger.to_dict()
    assert replay(trace, registry=REGISTRY) is None

    # Overshoot: at most one call in the default mode, none in strict mode,
    # where a reservation covers a call's output; beyond that, only what a
    # call used past its max_output_tokens (its prompt).
    slack = 0 if config.strict_budget else config.max_output_tokens
    excess = sum(
        max(0, Usage.from_dict(e.payload["usage"]).total - config.max_output_tokens)
        for e in trace.events
        if is_call(e.payload)
    )
    assert gateway.tokens_consumed <= config.token_budget + slack + excess

    # No pair proves both its claim and its negation.
    proven = [e.payload for e in trace.of_kind("pair_proven")]
    assert len({p["pair_id"] for p in proven}) == len(proven)
    assert all((p["g_pos"] >= p["threshold"]) != (p["g_neg"] >= p["threshold"]) for p in proven)

    # Every verified result passed N clean 7s on its exact text.
    for event in trace.of_kind("result"):
        if event.run_id == "aggregate" or event.payload["status"] != STATUS_VERIFIED:
            continue
        sid = event.payload["solution_id"]
        checks = [e.payload for e in trace.of_kind("check_grade", run_id=event.run_id) if e.payload["solution_id"] == sid]
        assert clean_run(checks, config.verify_repeats, event.payload["proof_text"]), sid


# -- a live solve that met a backend failure -----------------------------------


class FailsFirst:
    """A live backend, with no script: its first call of ``role`` fails as a
    provider's error does once the gateway's retries are spent, and ``inner``
    answers every other call."""

    def __init__(self, inner, role):
        self.inner = inner
        self.role = role
        self.backend_id = inner.backend_id
        self.failed = False
        self.lock = threading.Lock()

    def complete(self, req):
        with self.lock:
            fail = req.role == self.role and not self.failed
            self.failed |= fail
        if fail:
            raise BackendFailure("HTTP 500: Internal Server Error")
        return self.inner.complete(req)


PROBED = {**SCENARIOS, "two_run_judge": (rules_two_run_judge, well_problem)}
PROBES = [
    (name, role)
    for name in PROBED
    for role in ("grader", "solver", "extractor", "judge")
    if (role != "judge" or name == "two_run_judge") and (name, role) != ("clean", "extractor")  # clean never extracts
]


def run_result(result):
    """A run's result as its ``result`` event records it."""
    solution = result.solution
    return {"status": result.status, "solution_id": solution and solution.id,
            "proof_text": solution and solution.proof_text, "score": solution and solution.grade.score}


@pytest.mark.parametrize("name, role", PROBES)
def test_a_trace_with_a_failed_call_resumes_from_the_trace_alone(name, role):
    """A failed call's event is the one record of its failure, and a re-run
    raises it again at its turn: from every marker, a backend with no script
    is asked for no call and each resume returns its run's recorded result;
    cut right after the failed call's event, the trace asks that backend for
    exactly the calls it lacks."""
    make_rules, make_problem = PROBED[name]
    config = small_config(parallel_runs=2 if name == "two_run_judge" else 1)
    gateway = gateway_for(FailsFirst(ScriptedBackend(make_rules()), role), config)
    trace = Orchestrator(gateway, REGISTRY, config).run(make_problem(), trace=RunTrace(clock=lambda: 0.0)).trace
    (failed,) = [e for e in trace.events if "error" in e.payload]
    assert failed.payload["role"] == role
    assert failed.payload["error"] == "BackendFailure: HTTP 500: Internal Server Error"
    assert not {"response", "usage"} & failed.payload.keys()
    assert ledger_from_trace(trace, DEFAULT_PRICES).to_dict() == gateway.ledger.to_dict()

    runs = [event for event in signature(trace) if event[0] != "aggregate"]  # a re-run has no judge
    for checkpoint_id, marker in trace.checkpoints.items():
        backend = Unscripted(ScriptedBackend(make_rules()))
        resumed = Orchestrator(gateway_for(backend, config), REGISTRY, config).resume(trace, checkpoint_id)
        run_id = marker["state"]["run_id"]
        assert run_result(resumed) == trace.of_kind("result", run_id=run_id)[-1].payload, checkpoint_id
        assert signature(resumed.trace) == runs, checkpoint_id
        assert backend.calls == 0, checkpoint_id

    backend = Unscripted(ScriptedBackend(make_rules()))
    fresh, _, _, _ = Orchestrator(gateway_for(backend, config), REGISTRY, config).rerun(cut(trace, failed.seq + 1))
    assert signature(fresh) == runs
    lacked = [e for e in trace.events[failed.seq + 1 :] if "role" in e.payload and e.run_id != "aggregate"]
    assert backend.calls == len(lacked)
