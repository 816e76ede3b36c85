"""Fork/join groups: real overlap, and results independent of timing."""
import random
import sys
import threading
import time

import pytest

from proofpipe.conjecture import ConjectureEngine
from proofpipe.core import HypothesisPair, Origin, Problem, RunState
from proofpipe.dialectic import EMPTY_CONTEXT, DialecticEngine, raise_first
from proofpipe.gateway import (
    BudgetExceeded,
    CallFailed,
    ModelGateway,
    ModelRequest,
    ModelResponse,
    ScriptedBackend,
    ScriptRule,
    Usage,
)
from proofpipe.orchestrator import STATUS_BUDGET_EXHAUSTED, STATUS_VERIFIED, Orchestrator, replay, run_reserve
from proofpipe.trace import RunTrace, is_call, signature

from conftest import (
    clean_problem,
    grader_text,
    parser_json,
    rules_all_twos,
    rules_clean,
    rules_well,
    small_config,
    well_problem,
)
from test_core import fold, sol

PROBLEM = Problem(id="p1", statement="Prove that 1 + 1 = 2 in Peano arithmetic.")


class Wrapper:
    """A backend around a scripted one, forwarding what the orchestrator uses."""

    def __init__(self, inner):
        self.inner = inner
        self.backend_id = inner.backend_id

    def to_dict(self):
        return self.inner.to_dict()

    def complete(self, req):
        return self.inner.complete(req)


class BarrierBackend(Wrapper):
    """Holds each call (of ``role``, if given) until ``parties`` such calls
    are in flight at once."""

    def __init__(self, inner, parties, role=None, timeout=10):
        super().__init__(inner)
        self.barrier = threading.Barrier(parties)
        self.role = role
        self.timeout = timeout

    def complete(self, req):
        if self.role in (None, req.role):
            self.barrier.wait(timeout=self.timeout)  # BrokenBarrierError unless all parties arrive
        return self.inner.complete(req)


class JitterBackend(Wrapper):
    """Sleeps a seeded random 0-3 ms before each call."""

    def __init__(self, inner, seed):
        super().__init__(inner)
        self.rng = random.Random(seed)
        self.lock = threading.Lock()

    def complete(self, req):
        with self.lock:
            delay = self.rng.uniform(0.0, 0.003)
        time.sleep(delay)
        return self.inner.complete(req)


def gateway_for(backend, config, **kwargs):
    return ModelGateway(
        backend,
        token_budget=config.token_budget,
        retry_attempts=config.retry_attempts,
        strict_budget=config.strict_budget,
        sleep=lambda _: None,
        **kwargs,
    )


def side_rules():
    return [
        ScriptRule("solver", "POS_", [{"text": "POS_PROOF: direct."}], repeat_last=True),
        ScriptRule("solver", "NEG_", [{"text": "NEG_ATTEMPT: no counterexample."}], repeat_last=True),
        ScriptRule("processor", None, [{"text": "NO_ISSUES"}], repeat_last=True),
        ScriptRule("grader", "POS_PROOF", [{"text": grader_text(7)}], repeat_last=True),
        ScriptRule("grader", None, [{"text": grader_text(3, issues=(("gap", "Fallacy"),))}], repeat_last=True),
    ]


PAIRS = [HypothesisPair(id=f"h{i}", conjecture=f"POS_{i}: claim {i}", negation=f"NEG_{i}: not claim {i}") for i in range(3)]


class TestOverlap:
    """Each call waits on a barrier as wide as the group: the tests pass only
    if every leaf of the group has a call in flight at the same time."""

    def test_k_branches_in_flight_at_once(self, registry):
        config = small_config(solver_width=4)
        gateway = gateway_for(BarrierBackend(ScriptedBackend(rules_clean()), 4), config)
        engine = DialecticEngine(gateway, registry, config, RunTrace(clock=lambda: 0.0), "run1")
        out = engine.dialectic_solve(PROBLEM, EMPTY_CONTEXT, phase=1, origin=Origin.FRESH)
        assert [s.id for s in out] == [f"run1.s000{b}" for b in range(4)]

    def test_all_six_sides_in_flight_at_once(self, registry):
        config = small_config()
        gateway = gateway_for(BarrierBackend(ScriptedBackend(side_rules()), 2 * len(PAIRS)), config)
        engine = DialecticEngine(gateway, registry, config, RunTrace(clock=lambda: 0.0), "run1")
        outcome = ConjectureEngine(engine).verify_hypotheses(PAIRS, tau=7)
        assert [lemma.pair_id for lemma in outcome.proven] == ["h0", "h1", "h2"]
        assert len(outcome.attempts) == 6

    @pytest.mark.parametrize("use", ["verified_success", "grade_independent"])
    def test_check_grades_in_flight_at_once(self, use, registry):
        # The solution is given, not solved, so every grader call is a check
        # grade. A barrier that times out raises BrokenBarrierError, which is
        # not a call failure: it ends the test instead of hanging it.
        config = small_config()
        n = config.verify_repeats
        backend = BarrierBackend(ScriptedBackend(rules_clean()), n, role="grader", timeout=5)
        trace = RunTrace(clock=lambda: 0.0)
        engine = DialecticEngine(gateway_for(backend, config), registry, config, trace, "run1")
        solution = sol("run1.s0000", 7)
        if use == "verified_success":
            assert engine.verified_success(solution, PROBLEM)
        else:
            assert [g.score for g in engine.grade_independent(solution, PROBLEM, phase=4)] == [7] * n
        assert [e.payload["ordinal"] for e in trace.of_kind("check_grade")] == list(range(n))

    def test_runs_are_one_group(self, registry):
        # Each well run makes one extraction; the barrier lets them through
        # only if both runs' extractions are in flight at once.
        config = small_config(parallel_runs=2)
        backend = BarrierBackend(ScriptedBackend(rules_two_run_judge()), 2, role="extractor")
        gateway = gateway_for(backend, config)
        result = Orchestrator(gateway, registry, config).run(well_problem(), trace=RunTrace(clock=lambda: 0.0))
        assert result.status == STATUS_VERIFIED
        assert result.trace.count("extract") == 2

    def test_orchestrator_round_is_one_group(self, registry):
        # Only censor calls wait on the barrier: they come from branches, and
        # the clean run's only round is phase 1's four branches.
        config = small_config(solver_width=4)
        backend = BarrierBackend(ScriptedBackend(rules_clean()), 4, role="processor")
        gateway = gateway_for(backend, config)
        result = Orchestrator(gateway, registry, config).run(clean_problem(), trace=RunTrace(clock=lambda: 0.0))
        assert result.status == STATUS_VERIFIED
        assert result.trace.count("censor") == 4


def rules_copy(rules):
    return [ScriptRule(r.role, r.match, list(r.responses), r.repeat_last) for r in rules]


class TestTurnOrder:
    def test_cursor_replies_follow_branch_order(self, registry):
        # Not repeat_last: every reply depends on how many came before it.
        solver = [{"text": f"S{i}"} for i in range(8)]
        rules = [
            ScriptRule("solver", None, solver),
            ScriptRule("processor", None, [{"text": "NO_ISSUES"}], repeat_last=True),
            ScriptRule("grader", None, [{"text": grader_text(6, issues=(("slip", "Slip"),))}], repeat_last=True),
        ]
        config = small_config(solver_width=4)
        for seed in range(5):
            gateway = gateway_for(JitterBackend(ScriptedBackend(rules_copy(rules)), seed), config)
            engine = DialecticEngine(gateway, registry, config, RunTrace(clock=lambda: 0.0), "run1")
            out = engine.dialectic_solve(PROBLEM, EMPTY_CONTEXT, phase=1, origin=Origin.FRESH)
            # branch b drafts with reply 2b and refines with reply 2b+1
            assert [s.proof_text for s in out] == ["S1", "S3", "S5", "S7"], seed


def rules_cursored():
    """All-twos, but replies walk through cursor-ordered lists first."""
    return [
        ScriptRule("solver", None, [{"text": f"WEAK_PROOF_{i}: a sketch."} for i in range(5)], repeat_last=True),
        ScriptRule("processor", None, [{"text": "- it is clear that"}, {"text": "NO_ISSUES"}], repeat_last=True),
        ScriptRule(
            "grader",
            None,
            [{"text": grader_text(2, issues=((f"unsupported step {i}", "Fallacy"),))} for i in range(4)],
            repeat_last=True,
        ),
        ScriptRule("extractor", None, [{"text": "Two conjectures."}], repeat_last=True),
        ScriptRule(
            "parser",
            None,
            [{"text": parser_json(["CONJ_A: a.", "CONJ_B: b."], ["NEG_A: not a.", "NEG_B: not b."])}],
            repeat_last=True,
        ),
    ]


def rules_two_run_judge():
    return rules_well() + [ScriptRule("judge", None, [{"text": "<decision>B</decision>"}], repeat_last=True)]


def rules_late_extractor():
    """Two runs and a judge; the extractor rule settles only with run 1's
    extraction, so run 2's extraction waits for run 1 to finish."""
    narratives = [{"text": "Part 2 narrative with one load-bearing claim."}, {"text": "A second narrative."}]
    late = ScriptRule("extractor", None, narratives, repeat_last=True)
    rules = [late if r.role == "extractor" else r for r in rules_well()]
    return rules + [ScriptRule("judge", None, [{"text": "<decision>A</decision>"}], repeat_last=True)]


SCENARIOS = {
    "clean": (rules_clean, clean_problem, dict()),
    "well": (rules_well, well_problem, dict(initial_iterations=2, conjecture_iterations=2)),
    "all_twos": (rules_all_twos, clean_problem, dict(initial_iterations=2, conjecture_iterations=2)),
    "cursored": (rules_cursored, clean_problem, dict(solver_width=4, conjecture_iterations=2)),
    "two_run_judge": (rules_two_run_judge, well_problem, dict(parallel_runs=2)),
    # Run 2's calls wait on run 1's unsettled cursors.
    "two_run_cursored": (rules_cursored, clean_problem, dict(parallel_runs=2)),
    "two_run_late_rule": (rules_late_extractor, well_problem, dict(parallel_runs=2)),
}
# Budgets that run out inside a group. A branch group of three leaves keeps
# 2 * 6 * max_output_tokens (24,576 tokens) for its earlier leaves, so its
# later leaves get no share below that and shares of a few calls at 40,000.
TIGHT = ((rules_all_twos, clean_problem), (rules_two_run_judge, well_problem), (rules_cursored, clean_problem))
SCENARIOS.update(
    (
        f"{rules.__name__[6:]}_{runs}run_{budget}",
        (rules, problem, dict(solver_width=3, parallel_runs=runs, token_budget=budget)),
    )
    for rules, problem in TIGHT
    for runs in (1, 2)
    for budget in (3_000, 9_000, 16_000, 25_000, 40_000)
)


# The one-run scenarios, and one whose budget runs out in a bisection after
# a pair was recorded as failed.
ONE_RUN = {name: scenario for name, scenario in SCENARIOS.items() if scenario[2].get("parallel_runs", 1) == 1}
ONE_RUN["cursored_1run_33000"] = (rules_cursored, clean_problem, dict(solver_width=3, token_budget=33_000))


def run_scenario(name, registry, seed, scenarios=SCENARIOS):
    make_rules, make_problem, overrides = scenarios[name]
    config = small_config(**overrides)
    gateway = gateway_for(JitterBackend(ScriptedBackend(make_rules()), seed), config)
    result = Orchestrator(gateway, registry, config).run(make_problem(), trace=RunTrace(clock=lambda: 0.0))
    return result, gateway, config


def fingerprint(result, gateway):
    events = [(e.run_id, e.phase, e.kind, e.digest) for e in result.trace.events]
    ids = [s.id for s in result.state.solution_memory]
    solution = result.solution and (result.solution.id, result.solution.proof_text)
    return events, signature(result.trace), gateway.ledger.to_dict(), ids, solution


def assert_resumes_every_marker(name, registry, trace, gateway, config, seed):
    """One re-run of the trace, as every resume runs it, records the trace's
    events over their common prefix, reproduces each marker's run's text,
    and the ledger of every run, in run order: every run runs again, with
    no judge."""
    entries = [e.to_dict() for e in gateway.ledger.entries if e.run_id != "aggregate"]
    texts = {e.run_id: e.payload["proof_text"] for e in trace.of_kind("result")}
    rerun_gateway = gateway_for(JitterBackend(ScriptedBackend(SCENARIOS[name][0]()), seed), config)
    fresh, _, _, results = Orchestrator(rerun_gateway, registry, config).rerun(trace)
    held, rerun = signature(trace), signature(fresh)
    assert rerun == held[: len(rerun)]
    resumed = {result.state.run_id: result for result in results}
    for checkpoint_id, snap in trace.checkpoints.items():
        result = resumed[snap["state"]["run_id"]]
        assert (result.solution and result.solution.proof_text) == texts[result.state.run_id], checkpoint_id
    assert [e.to_dict() for e in rerun_gateway.ledger.entries] == entries


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_determinism_under_jitter(name, registry):
    runs = [run_scenario(name, registry, seed) for seed in range(5)]
    first = fingerprint(*runs[0][:2])
    for seed, (result, gateway, config) in enumerate(runs):
        assert fingerprint(result, gateway) == first, seed
        assert replay(result.trace, registry=registry) is None, seed
        assert_resumes_every_marker(name, registry, result.trace, gateway, config, seed)
    result, gateway, config = runs[0]
    assert gateway.ledger.total_tokens() == gateway.tokens_consumed
    trace = result.trace

    # Replies are a function of the logical order: feeding the recorded
    # prompts, in trace order, to a fresh backend gives every recorded reply.
    fresh = ScriptedBackend(SCENARIOS[name][0]())
    calls = [e.payload for e in trace.events if "slots" in e.payload and "response" in e.payload]
    assert len(calls) == len(gateway.ledger.entries)
    for payload in calls:
        prompt = registry.render(payload["role"], payload["slots"])
        req = ModelRequest(payload["role"], prompt, 0.0, config.max_output_tokens)
        assert fresh.complete(req).text == payload["response"]

    # The call events' usage accounts for every token the gateway consumed,
    # so the budget left at any event follows from the trace.
    spent = sum(sum(payload["usage"].values()) for payload in calls)
    assert spent == gateway.tokens_consumed


@pytest.mark.parametrize("name", sorted(ONE_RUN))
def test_live_state_is_the_fold_of_its_trace(name, registry):
    """A run's state is the fold of its trace's state events, also when the
    budget runs out."""
    result, _, _ = run_scenario(name, registry, 0, ONE_RUN)
    assert result.state == fold(result.state.run_id, result.trace.events)


def _criterion_9_budgets():
    rng = random.Random(7)
    return [1, 5] + [rng.randrange(100, 20_000) for _ in range(8)]


# The budgets of acceptance criterion 9 and of test_orchestrator.TestBudget.
BUDGETS = _criterion_9_budgets() + [700, 2500, 6000, 11_000, 12_000, 17_500]


@pytest.mark.parametrize("budget", BUDGETS)
def test_budget_safety_under_jitter(budget, registry):
    for runs in (1, 2):
        config = small_config(token_budget=budget, parallel_runs=runs)
        gateway = gateway_for(JitterBackend(ScriptedBackend(rules_two_run_judge()), budget), config)
        result = Orchestrator(gateway, registry, config).run(well_problem(), trace=RunTrace(clock=lambda: 0.0))
        assert result.status in (STATUS_BUDGET_EXHAUSTED, STATUS_VERIFIED)
        assert gateway.tokens_consumed <= budget + config.max_output_tokens
        assert gateway.ledger.total_tokens() == gateway.tokens_consumed
        assert {e.run_id for e in result.trace.of_kind("result")} >= {f"run{i + 1}" for i in range(runs)}
        if result.status == STATUS_BUDGET_EXHAUSTED and result.solution is not None:
            assert result.solution.grade is not None


def two_run_solve(registry, budget, runs, seed=0):
    config = small_config(token_budget=budget, parallel_runs=runs)
    gateway = gateway_for(JitterBackend(ScriptedBackend(rules_late_extractor()), seed), config)
    result = Orchestrator(gateway, registry, config).run(well_problem(), trace=RunTrace(clock=lambda: 0.0))
    return result, gateway


def run_signature(trace, run_id):
    return [event for event in signature(trace) if event[0] == run_id]


@pytest.mark.parametrize("spare", [5_000, 50_000])
def test_run_1_gets_the_budget_it_would_get_alone(spare, registry):
    """A budget that one run verifies within verifies run 1 of two runs the
    same way: a later run never spends what run 1 would have had."""
    _, gateway = two_run_solve(registry, 10_000_000, 1)
    budget = gateway.tokens_consumed + spare
    alone, _ = two_run_solve(registry, budget, 1)
    assert alone.status == STATUS_VERIFIED
    for seed in range(3):
        both, _ = two_run_solve(registry, budget, 2, seed)
        assert run_signature(both.trace, "run1") == run_signature(alone.trace, "run1"), seed
        assert [e.payload["status"] for e in both.trace.of_kind("result", run_id="run1")] == [STATUS_VERIFIED]


def test_a_later_run_past_its_share_waits_for_its_turn(registry):
    """Just beyond run 1's reserve, run 2's share holds a few of its calls:
    run 2 runs ahead on it, waits for its turn at the first call that does
    not fit, and goes on against the whole budget. Every call is admitted,
    as under an ample budget, whatever the timing."""
    config = small_config(parallel_runs=2)
    budget = run_reserve(config) + 2 * config.max_output_tokens
    ample, ample_gateway = two_run_solve(registry, 10_000_000, 2)
    for seed in range(4):
        result, gateway = two_run_solve(registry, budget, 2, seed)
        assert signature(result.trace)[1:] == signature(ample.trace)[1:], seed  # all but the header
        assert gateway.ledger.to_dict() == ample_gateway.ledger.to_dict()
        assert replay(result.trace, registry=registry) is None


class RefusingGateway(ModelGateway):
    """Refuses the refine call of the branch whose draft carries ``marker``."""

    def __init__(self, *args, marker, **kwargs):
        super().__init__(*args, **kwargs)
        self.marker = marker

    def complete(self, req):
        if req.role == "solver" and self.marker in req.prompt and "[Prior Candidate Solutions]" in req.prompt:
            raise BudgetExceeded()
        return super().complete(req)


def test_budget_in_one_leaf_salvages_its_siblings(registry):
    # Drafts and refines take solver replies in branch order: branch 1
    # drafts the marked proof, and its refine is refused; branch 3's draft
    # call fails, and its event, the group's last leaf event, records that.
    solver = [{"text": t} for t in ("DRAFT_0", "REFINED_0", "DRAFT_1 REFUSE_ME", "DRAFT_2", "REFINED_2")]
    rules = [
        ScriptRule("solver", None, [*solver, {"fail": True}], repeat_last=True),
        ScriptRule("processor", None, [{"text": "NO_ISSUES"}], repeat_last=True),
        ScriptRule("grader", None, [{"text": grader_text(6, issues=(("slip", "Slip"),))}], repeat_last=True),
    ]
    config = small_config(solver_width=4)
    gateway = RefusingGateway(
        JitterBackend(ScriptedBackend(rules), 0),
        token_budget=config.token_budget,
        sleep=lambda _: None,
        marker="REFUSE_ME",
    )
    result = Orchestrator(gateway, registry, config).run(clean_problem(), trace=RunTrace(clock=lambda: 0.0))
    assert result.status == STATUS_BUDGET_EXHAUSTED
    memory = result.state.solution_memory
    assert [(s.id, s.proof_text) for s in memory] == [("run1.s0000", "REFINED_0"), ("run1.s0002", "REFINED_2")]
    assert [e.payload["id"] for e in result.trace.of_kind("solution")] == ["run1.s0000", "run1.s0002"]
    assert result.trace.of_kind("budget_exhausted")[0].payload == {}
    # The round's records follow its last leaf event, in branch order, and
    # the refusal ends the run only after them.
    events = result.trace.events
    last_leaf = max(i for i, e in enumerate(events) if "branch" in e.payload)
    failed = events[last_leaf]
    assert (failed.kind, "usage" in failed.payload) == ("draft", False)
    assert failed.payload["error"].startswith("BackendFailure: backend failed after 3 attempts")
    records = [(e.kind, e.payload.get("id")) for e in events[last_leaf + 1 :]]
    assert records[:3] == [
        ("solution", "run1.s0000"),
        ("solution", "run1.s0002"),
        ("budget_exhausted", None),
    ]
    assert gateway.ledger.total_tokens() == gateway.tokens_consumed


def test_fork_join_returns_each_outcome_in_its_slot(registry):
    """A group returns, in task order, what each task returned or the
    exception that ended it, and raises none of them; ``raise_first`` raises
    the first that is not a failed call."""
    config = small_config()
    engine = DialecticEngine(gateway_for(ScriptedBackend(rules_clean()), config), registry, config, RunTrace(), "run1")
    failed, refused = CallFailed("no reply"), BudgetExceeded()

    def raising(exc):
        def task(_engine):
            raise exc

        return task

    outcomes = engine.fork_join([lambda _: "a", raising(failed), lambda _: "c", raising(refused)], reserve=0)
    assert outcomes == ["a", failed, "c", refused]
    raise_first(outcomes[:3])  # a failed call ends only its unit
    with pytest.raises(BudgetExceeded):
        raise_first(outcomes)


def test_a_budget_in_one_side_keeps_the_other_pairs_verdicts(registry):
    """The refine of h0's negation is refused: h0 gets no verdict, and the
    pairs whose two sides finished are recorded before the refusal is
    raised, whatever the timing. The run's state is the fold of its trace."""
    config = small_config()
    for seed in range(3):
        gateway = RefusingGateway(
            JitterBackend(ScriptedBackend(side_rules()), seed),
            token_budget=config.token_budget,
            sleep=lambda _: None,
            marker="NEG_0",
        )
        trace = RunTrace(clock=lambda: 0.0)
        engine = DialecticEngine(gateway, registry, config, trace, "run1", state=RunState("run1"))
        with pytest.raises(BudgetExceeded):
            ConjectureEngine(engine).verify_hypotheses(PAIRS, tau=7)
        sides = [(e.payload["pair_id"], e.payload["side"]) for e in trace.of_kind("side_solved")]
        assert sides == [("h0", "pos"), ("h1", "pos"), ("h1", "neg"), ("h2", "pos"), ("h2", "neg")], seed
        assert [e.payload["pair_id"] for e in trace.of_kind("pair_proven", "pair_failed")] == ["h1", "h2"], seed
        assert [lemma.pair_id for lemma in engine.state.lemma_memory] == ["h1", "h2"], seed
        assert fold("run1", trace.events) == engine.state, seed


@pytest.mark.parametrize("strict", [False, True])
def test_a_budget_inside_the_check_grades_keeps_the_grades_before_it(strict, registry):
    """A budget that admits two of three check grades: the first two are
    recorded in ordinal order and the third is refused, whatever the timing;
    the refusal is raised once the group has joined."""

    def gate(budget, seed):
        config = small_config(token_budget=budget, strict_budget=strict, verify_repeats=3)
        gateway = gateway_for(JitterBackend(ScriptedBackend(rules_clean()), seed), config)
        trace = RunTrace(clock=lambda: 0.0)
        engine = DialecticEngine(gateway, registry, config, trace, "run1")
        return engine, trace, gateway

    engine, _, gateway = gate(10_000_000, 0)
    assert engine.verified_success(sol("run1.s0000", 7), PROBLEM)
    grade = gateway.tokens_consumed // 3  # each check grade costs the same
    # The last budget at which the third grade is refused.
    budget = 2 * grade + (small_config().max_output_tokens - 1 if strict else 0)
    for seed in range(3):
        engine, trace, gateway = gate(budget, seed)
        with pytest.raises(BudgetExceeded):
            engine.verified_success(sol("run1.s0000", 7), PROBLEM)
        assert [e.payload["ordinal"] for e in trace.of_kind("check_grade")] == [0, 1], seed
        assert gateway.tokens_consumed == gateway.ledger.total_tokens() == 2 * grade


# -- resume against a recorded trace -------------------------------------------


class Unscripted:
    """A backend that carries no script (no ``to_dict``), so resume answers
    from the trace what it can; it answers as ``inner`` does and counts the
    calls it is asked."""

    def __init__(self, inner):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.calls = 0
        self.lock = threading.Lock()

    def complete(self, req):
        with self.lock:
            self.calls += 1
        return self.inner.complete(req)


class CountedGrades(Unscripted):
    """All-twos with no script, whose grader replies depend on the order the
    calls arrive in: the k-th grader call gets a 2 whose issue names k. So
    the N check grades of one text get different replies."""

    def __init__(self):
        super().__init__(ScriptedBackend(rules_all_twos()))

    def complete(self, req):
        if req.role != "grader":
            return super().complete(req)
        with self.lock:
            self.calls += 1
            text = grader_text(2, issues=((f"the main claim is unsupported (reply {self.calls})", "Fallacy"),))
        return ModelResponse(text, Usage(len(req.prompt) // 4, len(text) // 4), self.backend_id)


class JitterGateway(ModelGateway):
    """Sleeps a seeded random 0-3 ms before each call, ahead of the backend
    that a resume wraps around the gateway's own, so the calls of concurrent
    leaves reach it in an order that varies with the seed."""

    def __init__(self, backend, config, seed):
        super().__init__(backend, token_budget=config.token_budget, sleep=lambda _: None)
        self.rng = random.Random(seed)
        self.lock = threading.Lock()

    def complete(self, req):
        with self.lock:
            delay = self.rng.uniform(0.0, 0.003)
        time.sleep(delay)
        return super().complete(req)


def cut(trace, end):
    """The first ``end`` events of ``trace``, as a kill leaves its file."""
    part = RunTrace()
    part.events = trace.events[:end]
    return part


def call_count(trace):
    return sum(1 for e in trace.events if is_call(e.payload) and e.run_id != "aggregate")


@pytest.mark.parametrize("seed", range(5))
def test_a_resume_answers_each_recorded_reply_in_the_sequential_order(seed, registry):
    """Every grade of one text has one key (its role and prompt), and the
    N check grades of a text reach the backend at once. Cut right after
    check grade 0, the trace holds one reply of the check grades' key past
    every earlier grade's: the call at its turn takes each, so the re-run
    records what the trace holds and asks the backend only for what the cut
    lacks. Handed out in arrival order, a concurrent branch or check grade
    would take an earlier call's reply, and the re-run would differ."""
    config = small_config(conjecture_iterations=1)
    original = Orchestrator(JitterGateway(CountedGrades(), config, seed), registry, config).run(clean_problem())
    end = next(e.seq for e in original.trace.of_kind("check_grade") if e.payload["ordinal"] == 0) + 1
    source = cut(original.trace, end)
    double = CountedGrades()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads switch often, so the leaves' calls interleave
    try:
        resumed = Orchestrator(JitterGateway(double, config, seed + 100), registry, config).resume(
            source, list(source.checkpoints)[-1]
        )
    finally:
        sys.setswitchinterval(switch)
    assert signature(resumed.trace)[: len(signature(source))] == signature(source)
    assert double.calls == call_count(resumed.trace) - call_count(source) > 0


@pytest.mark.parametrize("name", ["well", "all_twos", "two_run_judge", "all_twos_2run_9000", "two_run_judge_2run_25000"])
def test_a_resume_asks_the_backend_only_for_the_calls_its_trace_lacks(name, registry):
    """With replies that do not depend on call order, a resume from the last
    marker of a trace cut after n events asks a backend with no script for
    exactly the calls of the runs that the cut lacks: none for the whole
    trace, also where the budget ran out inside a group."""
    make_rules, _, overrides = SCENARIOS[name]
    config = small_config(**overrides)
    assert all(rule.settled() for rule in make_rules())  # every reply is a function of the prompt
    result, _, _ = run_scenario(name, registry, 0)
    n = len(result.trace.events)
    for end in sorted({1, 2, 3, n // 4, n // 3, n // 2, 2 * n // 3, n - 5, n - 1, n}):
        source = cut(result.trace, end)
        if not source.checkpoints:
            continue
        double = Unscripted(ScriptedBackend(make_rules()))
        resumed = Orchestrator(gateway_for(double, config), registry, config).resume(source, list(source.checkpoints)[-1])
        assert double.calls == call_count(resumed.trace) - call_count(source), end
    assert double.calls == 0  # the whole trace answers every call
