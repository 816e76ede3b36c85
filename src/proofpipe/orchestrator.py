"""Four-phase pipeline state machine.

Phase 1 explores with a small solver fan-out (the K branches of every
solving round run as one concurrent group); while solutions stall, each
outer iteration extracts conjecture pairs from the best attempts, verifies
them by bisection in detached contexts, and feeds the winners back as
lemma memory for guided solving (one solver always stays fresh for
diversity). If the iteration budget runs out unverified, a post-enhancement
pass grades the best candidate independently, runs two extraction sessions
at the softer threshold, and keeps whichever of (incumbent, enhanced)
grades higher on average. The config's ``parallel_runs`` whole-pipeline
runs are aggregated by a judge call that must end with an explicit decision
tag; the runs execute at once, as the leaves of one fork/join group, and
the judge after them. Every size of a solve (runs, the K branches of a
round, the N check grades of a gate) is read from the config, never passed
in, and the header stores only the config.

A failed model call ends only the unit that made it (a branch, a bisection
side, an extraction, a grade, the judge); its own call event records the
error, and the run goes on.
Only budget exhaustion ends a run early, with the best graded solution in
its state. A group's units finish before that error is raised
(:func:`~proofpipe.dialectic.raise_first`), and what they finished is
recorded, in unit order, after the group's last event.

Every step appends to a :class:`RunTrace`, the only store of run state. A
run's state grows only as its state events (``solution``, ``pair_proven``,
``pair_failed``) are recorded (:meth:`DialecticEngine.record`). A
checkpoint marker at each phase boundary only names its run. The program is
deterministic given its replies, so replay and resume are one re-run
(:meth:`Orchestrator.rerun`): the solve runs again from its start, which
rebuilds every run's state, ids, ledger and scripted cursors, and must
record what the trace holds. Run 1 writes its events as it goes; the events
of every later run reach the trace, in run order, when the group joins.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
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
from .dialectic import BRANCH_CALLS, EMPTY_CONTEXT, Branch, DialecticEngine, SolveContext, raise_first
from .gateway import (
    ROLES,
    BudgetExceeded,
    CallFailed,
    CostLedger,
    ModelGateway,
    ModelResponse,
    PriceTable,
    RecordedBackend,
    RecordedFailure,
    ScriptedBackend,
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


class RerunError(Exception):
    """A trace cannot be run again (replay, resume), and why."""


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


def _result(solution: Optional[CandidateSolution], status: str) -> dict:
    """The payload of a ``result`` event: a run's, which adds the score, or the runs group's."""
    return {
        "status": status,
        "solution_id": solution.id if solution else None,
        "proof_text": solution.proof_text if solution else None,
    }


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


def ledger_from_trace(trace: RunTrace, price_table: PriceTable) -> CostLedger:
    """The ledger of the calls a trace records: one per call event, priced
    at the header's backend. A header backend that is not a table with a
    string ``backend_id``, or a call whose role is not a model role, raises
    ``ValueError``."""
    backend = (trace.header or {}).get("backend")
    if not (isinstance(backend, dict) and isinstance(backend.get("backend_id"), str)):
        raise ValueError(f"the header's backend is not a table with a backend_id: {backend!r}")
    backend_id = backend["backend_id"]
    price = price_table.get(backend_id)
    ledger = CostLedger()
    for event in trace.events:
        payload = event.payload
        if is_call(payload):
            if payload["role"] not in ROLES:
                raise ValueError(f"a call event's role is not a model role: {payload['role']!r}")
            usage = Usage.from_dict(payload["usage"])
            ledger.append(event.run_id, payload["role"], backend_id, usage, cost_of(usage, price))
    return ledger


def recorded_calls(trace: RunTrace, registry: PromptRegistry, backend_id: str) -> list[tuple[str, str, ModelResponse | RecordedFailure]]:
    """Each call event of ``trace``, a failed one's too, as :class:`RecordedBackend`
    takes it, in trace order: its role, its prompt rebuilt from its slots, and
    its reply or its :class:`RecordedFailure`. A ``response`` or ``error``
    that is not a string raises ``ValueError`` naming the event."""
    calls = []
    for event in (event for event in trace.events if "role" in event.payload):
        p, field = event.payload, "error" if "error" in event.payload else "response"
        if not isinstance(p[field], str):
            raise ValueError(f"event {event.seq} ({event.kind}): the {field} is not a string: {p[field]!r}")
        reply = RecordedFailure(p[field]) if field == "error" else ModelResponse(
            p[field], Usage.from_dict(p["usage"]), backend_id, coerced=p.get("coerced", ""))
        calls.append((p["role"], registry.render(p["role"], p["slots"]), reply))
    return calls


def read_header(source: RunTrace, registry: PromptRegistry) -> tuple[PipelineConfig, Problem, str, Optional[ScriptedBackend]]:
    """What a re-run of ``source`` runs: its header's config, problem and
    ``backend_id``, and its attached script, if it has one. A trace with no
    header, of another schema or other templates than ``registry``'s, or
    whose header or script does not read as one, raises
    :class:`RerunError` and says why."""
    header = source.header
    if header is None:
        raise RerunError("the trace has no header event")
    attachments = source.of_kind("script_attachment")
    try:
        if header["schema_version"] != SCHEMA_VERSION:
            raise ValueError(f"trace schema {header['schema_version']!r} is not supported (want {SCHEMA_VERSION})")
        if header["template_version"] != registry.version():
            raise ValueError("the trace was taken with other prompt templates")
        script = ScriptedBackend.from_dict(attachments[0].payload["script"]) if attachments else None
        return (PipelineConfig.from_dict(header["config"]), Problem.from_dict(header["problem"]),
                header["backend"]["backend_id"], script)
    except (KeyError, TypeError, ValueError) as exc:
        raise RerunError(f"the trace cannot be re-run: {exc}") from exc


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
        """The config's ``parallel_runs`` independent runs (separate states,
        shared ledger), aggregated by a judge when there is more than one.

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
        trace = trace if trace is not None else RunTrace()
        return self._judged(problem, *self._runs(problem, trace))

    # The traced benchmark (bench/instrument.py) wraps both names; ROADMAP item 3's
    # change to the benchmark drops this alias.
    run_parallel = run

    def rerun(self, source: RunTrace) -> tuple[RunTrace, DialecticEngine, Problem, list[PipelineResult]]:
        """Run the header's runs of ``source`` again from their start, on a
        fresh trace, as the same group, with no judge: the fresh trace, the
        group's engine, the problem and each run's result. The header must
        read (:func:`read_header`) and name this config and backend.

        A backend that carries a script (``to_dict``) answers every call; any
        other is wrapped in a :class:`RecordedBackend`, so only the calls the
        trace lacks reach it. Every call is admitted, metered and recorded as
        usual, so the budget, the ledger and the trace come out as the
        uninterrupted solve's.
        """
        config, problem, backend_id, _ = read_header(source, self.registry)
        backend = self.gateway.backend
        if config.to_dict() != self.config.to_dict():
            raise RerunError("the trace was taken under another pipeline config")
        if backend_id != backend.backend_id:
            raise RerunError(f"the trace was taken with backend {backend_id!r}, not {backend.backend_id!r}")
        if not hasattr(backend, "to_dict"):
            try:
                calls = recorded_calls(source, self.registry, backend_id)
            except (KeyError, TypeError, ValueError) as exc:  # a call event that does not read
                raise RerunError(f"the trace cannot be re-run: {exc}") from exc
            self.gateway.backend = RecordedBackend(backend, calls)
        trace = RunTrace()
        try:
            group, results = self._runs(problem, trace)
        finally:
            self.gateway.backend = backend
        return trace, group, problem, results

    def resume(self, source: RunTrace, checkpoint_id: str) -> PipelineResult:
        """The result of the run of checkpoint marker ``checkpoint_id``, from
        running the solve of ``source`` again (:meth:`rerun`). Each event of
        ``source`` must equal the re-run's over their common prefix, or
        :class:`RerunError` names the first that differs."""
        marker = source.checkpoints.get(checkpoint_id)
        if marker is None:
            raise RerunError(f"unknown checkpoint {checkpoint_id!r}")
        trace, _, _, results = self.rerun(source)
        divergence = first_divergence(source, trace)
        if divergence is not None and "length" not in divergence:  # a longer or shorter trace is no divergence
            held, rerun = divergence["expected"], divergence["actual"]
            raise RerunError(
                f"the re-run differs from the trace at event {divergence['index']}: "
                f"{rerun['run_id'], rerun['phase'], rerun['kind']}, not {held['run_id'], held['phase'], held['kind']}"
            )
        for result in results:
            if marker == {"state": {"run_id": result.state.run_id}}:
                return result
        raise RerunError(f"corrupt checkpoint {checkpoint_id!r}: it names none of the trace's runs: {marker!r}")

    # -- internals -------------------------------------------------------------

    def _runs(self, problem: Problem, trace: RunTrace) -> tuple[DialecticEngine, list[PipelineResult]]:
        """Write ``trace``'s header, then run the config's ``parallel_runs``
        runs from their start at once, as the leaves of one fork/join group:
        the group's engine and each run's result, in run order."""
        self._write_header(trace, problem)
        group = DialecticEngine(self.gateway, self.registry, self.config, trace, "aggregate")
        tasks = [partial(self._run_single, problem, run_id=f"run{i + 1}") for i in range(self.config.parallel_runs)]
        results = group.fork_join(tasks, reserve=run_reserve(self.config))
        raise_first(results, spare=())  # a run records its own failed calls
        return group, results

    def _judged(self, problem: Problem, group: DialecticEngine, results: list[PipelineResult]) -> PipelineResult:
        """The result of the runs ``results`` of ``group``: the only run's,
        or the judge ladder's pick, recorded as the group's ``result``."""
        if len(results) == 1:
            return results[0]  # run 1 recorded straight into the trace
        current = results[0]
        for challenger in results[1:]:
            current = self._judge(problem, current, challenger, group)
        group.append(4, "result", _result(current.solution, current.status))
        return PipelineResult(current.solution, current.status, current.state, group.trace)

    def _write_header(self, trace: RunTrace, problem: Problem) -> None:
        backend = self.gateway.backend
        trace.append(
            "meta",
            0,
            "run_start",
            {
                "schema_version": SCHEMA_VERSION,
                "problem": problem.to_dict(),
                "config": self.config.to_dict(),
                "backend": {"backend_id": backend.backend_id},
                "template_version": self.registry.version(),
            },
        )
        # The script rides along as an attachment: replay needs it, but it is
        # an input, not behavior, so trace comparison skips it.
        if hasattr(backend, "to_dict"):
            trace.append("meta", 0, "script_attachment", {"script": backend.to_dict()})

    def _run_single(self, problem: Problem, leaf_engine: DialecticEngine, run_id: str) -> PipelineResult:
        """One run from its start, on the trace and lane of a leaf of the runs group."""
        cfg, state = self.config, RunState(run_id)
        engine = DialecticEngine(self.gateway, self.registry, cfg, leaf_engine.trace, run_id, lane=leaf_engine.lane,
                                 state=state)
        try:
            for i in range(1, cfg.initial_iterations + 1):
                engine.append(1, "phase_start", {"phase": 1, "iteration": i})
                # contexts come from the previous iterations' solutions
                branches = [Branch(problem, EMPTY_CONTEXT, Origin.FRESH)]
                for k in range(1, cfg.solver_width):
                    ctx = select_kth_top(state.solution_memory, k)
                    branches.append(Branch(problem, ctx, Origin.FRESH if ctx.is_empty() else Origin.CONTEXTUAL))
                if verified := self._gated_round(problem, engine, branches, phase=1):
                    return verified
                if i < cfg.initial_iterations:
                    self._checkpoint(engine, f"p1.i{i}", 1)
            self._checkpoint(engine, "p1.done", 3)

            for l in range(1, cfg.conjecture_iterations + 1):
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
                self._checkpoint(engine, f"outer.l{l}", 3 if l < cfg.conjecture_iterations else 4)

            return self._phase4(problem, engine)
        except BudgetExceeded:
            # every solution finished before the refused call is already in the state
            engine.append(0, "budget_exhausted", {})
            memory = state.solution_memory
            return self._finish(engine, best(memory) if memory else None, STATUS_BUDGET_EXHAUSTED)

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
        state = engine.state
        engine.append(4, "phase_start", {"phase": 4})
        if not state.solution_memory:
            return self._finish(engine, None, STATUS_BEST_EFFORT)
        s_star = best(state.solution_memory)
        g_check = engine.grade_independent(s_star, problem, phase=4)
        if all(g.clean_perfect for g in g_check):
            return self._finish(engine, s_star, STATUS_VERIFIED)

        check_issue_texts = [i.text for g in g_check for i in g.issues]
        enhance_feedback: list[str] = []
        for session in (1, 2):
            engine.append(4, "enhance_session", {"session": session})
            outcome = self._conjecture_round(problem, engine, [s_star], TAU_E, 4, check_issue_texts)
            enhance_feedback.extend(unresolved(record) for record in outcome.failed)

        ctx = SolveContext(
            lemmas=tuple(state.lemma_memory),
            feedback=tuple(enhance_feedback + check_issue_texts),
            prior_solutions=(s_star,),
        )
        batch = engine.dialectic_solve(problem, ctx, phase=4, origin=Origin.POST_ENHANCED)
        final, final_grades = s_star, g_check
        if batch:  # a round in which every branch failed keeps the incumbent
            s_better = best(batch)
            g_better = engine.grade_independent(s_better, problem, phase=4)
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

    def _conjecture_round(self, problem: Problem, engine: DialecticEngine, seeds: Sequence[CandidateSolution], tau: int,
                          phase: int, reports: Sequence[str] = ()) -> VerifyOutcome:
        """Extract conjecture pairs from ``seeds`` (with grader ``reports``)
        and bisect them at ``tau``. A failed extraction bisects nothing."""
        conj, state = ConjectureEngine(engine), engine.state
        try:
            pairs = conj.extract_hypotheses(problem, seeds, state.lemma_memory, state.failure_context, reports, phase)
        except CallFailed:
            return NO_OUTCOME
        return conj.verify_hypotheses(pairs, tau, phase)

    def _checkpoint(self, engine: DialecticEngine, name: str, phase: int) -> None:
        """Record checkpoint ``<run_id>.<name>``: a marker that names its run,
        at the place in the trace where it is recorded."""
        engine.lane.record(engine.trace.checkpoint, f"{engine.run_id}.{name}", engine.run_id, phase)

    def _finish(self, engine: DialecticEngine, solution: Optional[CandidateSolution], status: str) -> PipelineResult:
        self._checkpoint(engine, "final", 4)
        engine.append(4, "result", {**_result(solution, status), "score": solution.grade.score if solution else None})
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
    """Run the solve of a scripted trace again (:meth:`Orchestrator.rerun`),
    against its attached script and under its header's config, judge
    included, and report its first divergence: None when the re-run is
    identical. A trace with no script raises :class:`RerunError`, as does
    one that cannot be re-run."""
    registry = registry or PromptRegistry.load()
    config, _, _, script = read_header(original, registry)
    if script is None:
        raise RerunError("only scripted-backend traces can be replayed")
    gateway = ModelGateway(script, token_budget=config.token_budget, retry_attempts=config.retry_attempts,
                           strict_budget=config.strict_budget, sleep=lambda _: None)
    orch = Orchestrator(gateway, registry, config)
    fresh, group, problem, results = orch.rerun(original)
    orch._judged(problem, group, results)
    return first_divergence(original, fresh)
