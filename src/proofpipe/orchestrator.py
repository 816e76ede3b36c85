"""Four-phase pipeline state machine.

Phase 1 explores with a small solver fan-out (the K branches of every
solving round run as one concurrent group); while solutions stall, each
outer iteration extracts conjecture pairs from the best attempts, verifies
them by bisection in detached contexts, and feeds the winners back as
lemma memory for guided solving (one solver always stays fresh for
diversity). If the iteration budget runs out unverified, a post-enhancement
pass grades the best candidate independently, runs two extraction sessions
at the softer threshold, and keeps whichever of (incumbent, enhanced)
grades higher on average. Two whole-pipeline runs can be aggregated by a
judge call that must end with an explicit decision tag; the runs execute at
once, as the leaves of one fork/join group, and the judge after them.

A failed model call ends only the unit that made it (a branch, a bisection
side, an extraction, a grade, the judge) and is recorded; the run goes on.
Only budget exhaustion ends a run early, with the best graded solution in
its state. A group's units finish before that error is raised
(:func:`~proofpipe.dialectic.raise_first`), and what they finished is
recorded, in unit order, after the group's last event.

Every step appends to a :class:`RunTrace`, the only store of run state. A
run's state grows only as its state events (``solution``, ``pair_proven``,
``pair_failed``) are recorded (:meth:`DialecticEngine.record`).
Checkpoints at phase boundaries are small markers, and resuming from one
folds the events before it back into the run's state by the same rule
(:meth:`RunState.fold`) and into its ledger. Under a scripted backend a
resumed run reproduces the original bit for bit. Run 1 writes its events
as it goes; the events of every later run reach the trace, in run order,
when the group joins.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional, Sequence

from .conjecture import ConjectureEngine, VerifyOutcome
from .core import (
    CandidateSolution,
    FailureRecord,
    Origin,
    PipelineConfig,
    Problem,
    RunState,
    best,
    rank,
)
from .dialectic import BRANCH_CALLS, EMPTY_CONTEXT, Branch, DialecticEngine, IdAllocator, SolveContext, raise_first
from .gateway import (
    BudgetExceeded,
    CallFailed,
    CostLedger,
    ModelGateway,
    PriceTable,
    Usage,
    cost_of,
    failure_text,
)
from .prompts import PromptRegistry
from .trace import SCHEMA_VERSION, RunTrace, first_divergence, is_call

STATUS_VERIFIED = "verified"
STATUS_BEST_EFFORT = "best_effort"
STATUS_BUDGET_EXHAUSTED = "budget_exhausted"

_DECISION_RE = re.compile(r"<decision>([AB])</decision>")

# Bisection thresholds: a side proves its statement at TAU in the outer
# loop and at the softer TAU_E in post-enhancement.
TAU = 7
TAU_E = 6
# Characters of one solution quoted in guided feedback and the judge's history.
HISTORY_CHAR_CAP = 4000
# The outcome of a conjecture round that bisected nothing.
NO_OUTCOME = VerifyOutcome((), (), ())


class ResumeError(Exception):
    """A checkpoint is missing, corrupt, or from an incompatible setup."""


class ReplayError(Exception):
    """The trace cannot be re-executed (typically: not a scripted run)."""


@dataclass
class PipelineResult:
    solution: Optional[CandidateSolution]
    status: str
    state: RunState
    trace: RunTrace


def extract_decision(text: str) -> Optional[str]:
    """The judge's verdict: the last well-formed decision tag wins."""
    matches = _DECISION_RE.findall(text)
    return matches[-1] if matches else None


def _decided(text: str) -> tuple[str, dict]:
    decision = extract_decision(text)
    if decision is None:
        raise CallFailed("no decision tag")
    return decision, {"decision": decision}


def select_kth_top(solutions: Sequence[CandidateSolution], k: int) -> SolveContext:
    """Context built from the k-th best distinct solution (1-indexed).

    Fewer than k distinct candidates yields an empty context, which the
    caller treats as a fresh solve.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ordered = rank(solutions)
    if len(ordered) < k:
        return EMPTY_CONTEXT
    return SolveContext(prior_solutions=(ordered[k - 1],))


def select_top(solutions: Sequence[CandidateSolution], n: int) -> list[CandidateSolution]:
    return rank(solutions)[:n]


def unresolved(record: FailureRecord) -> str:
    """The solver feedback on a pair that bisection left without a lemma."""
    return f"Unresolved conjecture ({record.reason.value}): {record.conjecture}"


def ledger_from_trace(trace: RunTrace, price_table: PriceTable, end: Optional[int] = None) -> CostLedger:
    """The ledger of the calls recorded before seq ``end`` (all by default):
    one per call event, priced at the header's backend."""
    backend_id = ((trace.header or {}).get("backend") or {}).get("backend_id", "scripted")
    price = price_table.get(backend_id)
    ledger = CostLedger()
    for event in trace.events[:end]:
        payload = event.payload
        if is_call(payload):
            usage = Usage.from_dict(payload["usage"])
            ledger.append(event.run_id, payload["role"], backend_id, usage, cost_of(usage, price))
    return ledger


def call_ceilings(config: PipelineConfig, runs: int = 1) -> dict[str, int]:
    """Worst-case model-call counts per role for a whole invocation.

    The ceilings compose one branch's worst case (:data:`BRANCH_CALLS`)
    through every phase and the bisection side-solves, and add the
    triple-check gates, the extractions and the judge ladder. Traces must
    never exceed these.
    """
    k_width = config.solver_width
    l0 = config.initial_iterations
    l_outer = config.conjecture_iterations
    n_rep = config.verify_repeats
    k_pairs = config.extraction_budget

    branches = (
        l0 * k_width
        + l_outer * (2 * k_pairs + k_width)
        + (2 * 2 * k_pairs + k_width)  # post-enhancement: 2 sessions of sides + final fan-out
    )
    check_grades = n_rep * k_width * (l0 + l_outer) + 2 * n_rep
    per_run = {role: calls * branches for role, calls in BRANCH_CALLS.items()}
    per_run["grader"] += check_grades
    per_run["extractor"] = l_outer + 2
    per_run["parser"] = 2 * (l_outer + 2)
    totals = {role: count * runs for role, count in per_run.items()}
    totals["judge"] = 2 * max(0, runs - 1)
    return totals


def run_reserve(config: PipelineConfig) -> int:
    """Tokens of the budget kept for each earlier aggregated run while the
    later runs run ahead of their turn: half a run's worst case, its call
    ceilings at ``max_output_tokens`` each.

    A run that spends no more than this gets what it would get if the runs
    ran one after another. The whole worst case would not do: at the
    default config it is 12.1M tokens, more than the default 8M budget, so
    no later run could ever start before the earlier ones had finished.
    """
    return sum(call_ceilings(config).values()) * config.max_output_tokens // 2


class Orchestrator:
    """Drives pipeline runs against one gateway and template registry."""

    def __init__(
        self,
        gateway: ModelGateway,
        registry: PromptRegistry,
        config: PipelineConfig,
    ):
        self.gateway = gateway
        self.registry = registry
        self.config = config

    # -- public entry points --------------------------------------------------

    def run(self, problem: Problem, trace: Optional[RunTrace] = None) -> PipelineResult:
        """One run, with no judge."""
        return self.run_parallel(problem, trace, n=1)

    def run_parallel(
        self, problem: Problem, trace: Optional[RunTrace] = None, n: Optional[int] = None
    ) -> PipelineResult:
        """Aggregate n independent runs (separate states, shared ledger).

        The runs execute at once, as the leaves of one fork/join group
        (:meth:`DialecticEngine.fork_join`): run 1 writes to the trace as it
        goes, and every later run is committed after it, in run order, at
        the join. A later run spends ahead of its turn only what the budget
        holds beyond :func:`run_reserve` for each earlier run. The judge
        then sees both finals plus each run's solution-sequence history; a
        missing decision tag is re-prompted once and then falls back to the
        comparator over the two finals, as do a failed judge call and one
        the token budget refuses.
        """
        n = n if n is not None else self.config.parallel_runs
        trace = trace if trace is not None else RunTrace()
        self._write_header(trace, problem, runs=n)
        group = DialecticEngine(self.gateway, self.registry, self.config, trace, "aggregate")
        tasks = [partial(self._run_single, problem, run_id=f"run{i + 1}") for i in range(n)]
        results = group.fork_join(tasks, reserve=run_reserve(self.config))
        raise_first(results, spare=())  # a run records its own failed calls
        if n == 1:
            return results[0]  # run 1 recorded straight into ``trace``
        current = results[0]
        for challenger in results[1:]:
            current = self._judge(problem, current, challenger, group)
        group.append(
            4,
            "result",
            {
                "status": current.status,
                "solution_id": current.solution.id if current.solution else None,
                "proof_text": current.solution.proof_text if current.solution else None,
            },
        )
        return PipelineResult(current.solution, current.status, current.state, trace)

    def resume(self, source: RunTrace, checkpoint_id: str) -> PipelineResult:
        """Continue a run from a checkpoint marker.

        What the marker does not hold is folded from the events before it
        (the ledger is priced with this gateway's table). The caller
        supplies an orchestrator whose gateway wraps a backend compatible
        with the original (for scripted backends: the same script). Events
        after the checkpoint are discarded; under scripted backends the
        continuation reproduces them exactly.
        """
        marker = source.checkpoints.get(checkpoint_id)
        if marker is None:
            raise ResumeError(f"unknown checkpoint {checkpoint_id!r}")
        header = source.header
        if header is None:
            raise ResumeError("trace has no header event")
        try:
            if header["schema_version"] != SCHEMA_VERSION:
                raise ResumeError(f"trace schema {header['schema_version']} != {SCHEMA_VERSION}")
            if header["resumed_from"] is not None:
                raise ResumeError("the trace of a resumed run lacks the events before its checkpoint")
            if header["template_version"] != self.registry.version():
                raise ResumeError("checkpoint was taken with different prompt templates")
            if PipelineConfig.from_dict(header["config"]).to_dict() != self.config.to_dict():
                raise ResumeError("checkpoint was taken under a different pipeline config")
            problem = Problem.from_dict(header["problem"])
            position = tuple(marker["position"])
            state = RunState(**marker["state"])
            state.fold(source.events[: marker["seq"]])
            ids = IdAllocator.from_dict(marker["ids"])
            ledger = ledger_from_trace(source, self.gateway.price_table, end=marker["seq"])
            cursors = marker["cursors"]
            result = marker["result"] if position[0] == "final" else None
        except (KeyError, TypeError, ValueError) as exc:
            raise ResumeError(f"corrupt checkpoint: {exc}") from exc

        self.gateway.restore(ledger)
        if cursors is not None:
            if not hasattr(self.gateway.backend, "restore"):
                raise ResumeError("checkpoint carries scripted cursors but backend is not scripted")
            self.gateway.backend.restore(cursors)

        trace = RunTrace()
        self._write_header(trace, problem, resumed_from=checkpoint_id)
        if result is not None:
            solution = next((s for s in state.solution_memory if s.id == result["solution_id"]), None)
            return PipelineResult(solution, result["status"], state, trace)
        engine = DialecticEngine(self.gateway, self.registry, self.config, trace, state.run_id, ids, state=state)
        return self._machine(problem, engine, position)

    # -- internals -------------------------------------------------------------

    def _write_header(self, trace: RunTrace, problem: Problem, runs: int = 1, resumed_from: Optional[str] = None) -> None:
        if trace.header is not None:
            return
        backend = self.gateway.backend
        trace.append(
            "meta",
            0,
            "run_start",
            {
                "schema_version": SCHEMA_VERSION,
                "runs": runs,
                "problem": problem.to_dict(),
                "config": self.config.to_dict(),
                "backend": {"backend_id": backend.backend_id},
                "template_version": self.registry.version(),
                "resumed_from": resumed_from,
            },
        )
        # The script rides along as an attachment: replay needs it, but it is
        # an input, not behavior, so trace comparison skips it.
        if hasattr(backend, "to_dict"):
            trace.append("meta", 0, "script_attachment", {"script": backend.to_dict()})

    def _run_single(self, problem: Problem, leaf_engine: DialecticEngine, run_id: str) -> PipelineResult:
        """One run from its start, on the trace and lane of a leaf of the runs group."""
        trace, lane = leaf_engine.trace, leaf_engine.lane
        engine = DialecticEngine(self.gateway, self.registry, self.config, trace, run_id, lane=lane, state=RunState(run_id))
        return self._machine(problem, engine, ("p1", 1))

    def _machine(self, problem: Problem, engine: DialecticEngine, position: tuple) -> PipelineResult:
        state, cfg = engine.state, self.config
        try:
            if position[0] == "p1":
                for i in range(position[1], cfg.initial_iterations + 1):
                    engine.append(1, "phase_start", {"phase": 1, "iteration": i})
                    # contexts come from the previous iterations' solutions
                    branches = [Branch(problem, EMPTY_CONTEXT, Origin.FRESH)]
                    for k in range(1, cfg.solver_width):
                        ctx = select_kth_top(state.solution_memory, k)
                        branches.append(Branch(problem, ctx, Origin.FRESH if ctx.is_empty() else Origin.CONTEXTUAL))
                    if verified := self._gated_round(problem, engine, branches, phase=1):
                        return verified
                    if i < cfg.initial_iterations:
                        self._checkpoint(engine, f"p1.i{i}", ("p1", i + 1))
                self._checkpoint(engine, "p1.done", ("outer", 1))
                position = ("outer", 1)

            if position[0] == "outer":
                for l in range(position[1], cfg.conjecture_iterations + 1):
                    engine.append(2, "phase_start", {"phase": 2, "iteration": l})
                    seeds = select_top(state.solution_memory, 2)
                    outcome = NO_OUTCOME
                    if not seeds:
                        engine.append(2, "extract_skipped", {"reason": "no graded seeds"})
                    else:
                        # A failed extraction loses only itself; the guided round still runs.
                        outcome = self._conjecture_round(problem, engine, seeds, TAU, phase=2)

                    engine.append(3, "phase_start", {"phase": 3, "iteration": l})
                    ctx = self._guided_context(state, outcome)
                    branches = [Branch(problem, ctx, Origin.GUIDED, b) for b in range(cfg.solver_width - 1)]
                    branches.append(Branch(problem, EMPTY_CONTEXT, Origin.FRESH))
                    if verified := self._gated_round(problem, engine, branches, phase=3):
                        return verified
                    self._checkpoint(engine, f"outer.l{l}", self._after_outer(l))
                position = ("p4", 0)

            return self._phase4(problem, engine)
        except BudgetExceeded:
            # every solution finished before the refused call is already in the state
            engine.append(0, "budget_exhausted", {})
            memory = state.solution_memory
            return self._finish(engine, best(memory) if memory else None, STATUS_BUDGET_EXHAUSTED)

    def _after_outer(self, l: int) -> tuple:
        return ("outer", l + 1) if l < self.config.conjecture_iterations else ("p4", 0)

    def _guided_context(self, state: RunState, outcome: VerifyOutcome) -> SolveContext:
        feedback = [unresolved(record) for record in outcome.failed]
        for attempt in outcome.attempts:
            feedback.append(
                f"Partial progress on {attempt.pair_id} ({attempt.side}, scored {attempt.score}/7): "
                + attempt.proof_text[:HISTORY_CHAR_CAP]
            )
        prior = (best(state.solution_memory),) if state.solution_memory else ()
        return SolveContext(lemmas=tuple(state.lemma_memory), feedback=tuple(feedback), prior_solutions=prior)

    def _phase4(self, problem: Problem, engine: DialecticEngine) -> PipelineResult:
        cfg = self.config
        state = engine.state
        engine.append(4, "phase_start", {"phase": 4})
        if not state.solution_memory:
            return self._finish(engine, None, STATUS_BEST_EFFORT)
        s_star = best(state.solution_memory)
        g_check = engine.grade_independent(s_star, problem, cfg.verify_repeats, phase=4)
        if all(g.clean_perfect for g in g_check):
            return self._finish(engine, s_star, STATUS_VERIFIED)

        check_issue_texts = [i.text for g in g_check for i in g.issues]
        enhance_feedback: list[str] = []
        for session in (1, 2):
            engine.append(4, "enhance_session", {"session": session})
            outcome = self._conjecture_round(problem, engine, [s_star], TAU_E, 4, check_issue_texts, session=session)
            enhance_feedback.extend(unresolved(record) for record in outcome.failed)

        ctx = SolveContext(
            lemmas=tuple(state.lemma_memory),
            feedback=tuple(enhance_feedback + check_issue_texts),
            prior_solutions=(s_star,),
        )
        batch = engine.dialectic_solve(problem, ctx, cfg.solver_width, phase=4, origin=Origin.POST_ENHANCED)
        final, final_grades = s_star, g_check
        if batch:  # a round in which every branch failed keeps the incumbent
            s_better = best(batch)
            g_better = engine.grade_independent(s_better, problem, cfg.verify_repeats, phase=4)
            # argmax over mean independent grades; ties keep the incumbent
            if sum(g.score for g in g_better) > sum(g.score for g in g_check):
                final, final_grades = s_better, g_better
        status = STATUS_VERIFIED if all(g.clean_perfect for g in final_grades) else STATUS_BEST_EFFORT
        return self._finish(engine, final, status)

    def _gated_round(
        self, problem: Problem, engine: DialecticEngine, branches: Sequence[Branch], phase: int
    ) -> Optional[PipelineResult]:
        """Solve ``branches`` as one round, then try the verify gate, N clean
        check grades of one text, on its solutions; the run's verified
        result, or None if no solution passed.

        Only solutions whose inline grade is already a clean 7 are worth the
        extra grader calls; they are tried in comparator order.
        """
        for candidate in rank(engine.solve_branches(branches, phase)):
            if not candidate.grade.clean_perfect:
                continue
            engine.append(phase, "verify_start", {"solution_id": candidate.id})
            if engine.verified_success(candidate, problem):
                engine.append(phase, "verified", {"solution_id": candidate.id})
                return self._finish(engine, candidate, STATUS_VERIFIED)
            engine.append(phase, "verify_failed", {"solution_id": candidate.id})
        return None

    def _conjecture_round(
        self,
        problem: Problem,
        engine: DialecticEngine,
        seeds: Sequence[CandidateSolution],
        tau: int,
        phase: int,
        reports: Sequence[str] = (),
        **failure_fields,
    ) -> VerifyOutcome:
        """Extract conjecture pairs from ``seeds`` (with grader ``reports``)
        and bisect them at ``tau``. A failed extraction is recorded as
        ``extraction_failed``, with ``failure_fields``, and bisects nothing."""
        conj, state = ConjectureEngine(engine), engine.state
        try:
            pairs = conj.extract_hypotheses(problem, seeds, state.lemma_memory, state.failure_context, reports, phase)
        except CallFailed as exc:
            engine.append(phase, "extraction_failed", {"error": failure_text(exc), **failure_fields})
            return NO_OUTCOME
        return conj.verify_hypotheses(pairs, tau, phase)

    def _checkpoint(self, engine: DialecticEngine, name: str, position: tuple, result: Optional[dict] = None) -> None:
        """Record checkpoint ``<run_id>.<name>`` as a marker of constant size.

        The trace sets its ``seq`` to the marker's own event: resume folds
        the events before it.
        """
        marker = {
            "position": list(position),
            "state": {"run_id": engine.run_id},
            "ids": engine.ids.to_dict(),
            "cursors": self._cursors(engine.lane),
        }
        if result is not None:
            marker["result"] = result
        phase = {"p1": 1, "outer": 3, "p4": 4, "final": 4}.get(position[0], 0)
        engine.lane.record(engine.trace.checkpoint, f"{engine.run_id}.{name}", marker, engine.run_id, phase)

    def _cursors(self, lane) -> Optional[list[int]]:
        """The scripted cursors a marker records, the same whatever the timing.

        Once every rule is settled, its cursors are each rule's last
        response index, however far the runs have got. Otherwise the marker
        waits for the earlier runs to finish first, and then holds the
        cursors of the sequential order: those runs' calls and this run's own.
        """
        backend = self.gateway.backend
        if not hasattr(backend, "snapshot"):
            return None
        cursors = backend.snapshot()
        if cursors != self._settled_cursors:
            lane.wait_turn()
            cursors = backend.snapshot()
        return cursors

    @cached_property
    def _settled_cursors(self) -> Optional[list[int]]:
        """The scripted cursors once every rule is settled
        (:meth:`ScriptRule.settled`): each rule's last response index, or None
        if a rule does not repeat its last response and so never settles.
        Read once from the script, which backend wrappers forward as
        ``to_dict``."""
        rules = self.gateway.backend.to_dict()["rules"]
        if not all(rule["repeat_last"] for rule in rules):
            return None
        return [len(rule["responses"]) - 1 for rule in rules]

    def _finish(self, engine: DialecticEngine, solution: Optional[CandidateSolution], status: str) -> PipelineResult:
        result = {"status": status, "solution_id": solution.id if solution else None}
        self._checkpoint(engine, "final", ("final",), result)
        engine.append(
            4,
            "result",
            {
                "status": status,
                "solution_id": solution.id if solution else None,
                "proof_text": solution.proof_text if solution else None,
                "score": solution.grade.score if solution else None,
            },
        )
        return PipelineResult(solution, status, engine.state, engine.trace)

    def _judge(self, problem: Problem, a: PipelineResult, b: PipelineResult, judge: DialecticEngine) -> PipelineResult:
        for name, empty, other in (("A", a, b), ("B", b, a)):
            if empty.solution is None:
                judge.append(4, "judge_fallback", {"reason": f"run {name} produced no solution"})
                return other

        slots = {
            "problem": problem.statement,
            "solution_a": a.solution.proof_text,
            "solution_b": b.solution.proof_text,
            "additional_materials": self._history_blob(a) + "\n\n" + self._history_blob(b),
        }
        try:
            decision = judge._call("judge", slots, 4, "judge", {}, parse=_decided, attempts=2)
            return a if decision == "A" else b
        except BudgetExceeded:
            reason = "token budget exhausted before a decision"
        except CallFailed as exc:
            reason = failure_text(exc)
        judge.append(4, "judge_fallback", {"reason": reason})
        return a if best([a.solution, b.solution]) is a.solution else b

    def _history_blob(self, result: PipelineResult) -> str:
        lines = [f"Solution sequence from pipeline {result.state.run_id}:"]
        for i, sol in enumerate(result.state.solution_memory, 1):
            lines.append(f"--- attempt {i} (phase {sol.phase}, graded {sol.grade.score}/7) ---")
            lines.append(sol.proof_text[:HISTORY_CHAR_CAP])
        return "\n".join(lines)


def replay(original: RunTrace, registry: Optional[PromptRegistry] = None) -> Optional[dict]:
    """Re-execute a scripted trace and report its first divergence.

    Returns None when the re-run is identical. Raises :class:`ReplayError`
    for traces whose backend cannot be reconstructed (live backends).
    """
    from .gateway import ScriptedBackend  # local import keeps module deps one-way

    header = original.header
    if header is None:
        raise ReplayError("trace has no header event")
    attachments = original.of_kind("script_attachment")
    if not attachments:
        raise ReplayError("only scripted-backend traces can be replayed")
    if header["schema_version"] != SCHEMA_VERSION:
        raise ReplayError(
            f"trace schema {header['schema_version']} is not supported (want {SCHEMA_VERSION})"
        )

    if type(header["runs"]) is not int or header["runs"] < 1:
        raise ReplayError(f"the header's runs is not a count of at least 1: {header['runs']!r}")
    config = PipelineConfig.from_dict(header["config"])
    problem = Problem.from_dict(header["problem"])
    backend = ScriptedBackend.from_dict(attachments[0].payload["script"])
    gateway = ModelGateway(
        backend,
        token_budget=config.token_budget,
        retry_attempts=config.retry_attempts,
        strict_budget=config.strict_budget,
        sleep=lambda _: None,
    )
    registry = registry or PromptRegistry.load()
    if header["template_version"] != registry.version():
        raise ReplayError("trace was produced with different prompt templates")
    orch = Orchestrator(gateway, registry, config)
    fresh = RunTrace()
    orch.run_parallel(problem, trace=fresh, n=header["runs"])
    return first_divergence(original, fresh)
