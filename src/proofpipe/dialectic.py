"""Draft/censor/grade/refine solving loop.

One branch is a fixed chain: draft the proof, run the lazy-phrase censor
over it, re-draft once if the censor objects, grade, refine against the
grade's feedback, re-grade. The refined, re-graded solution is the branch
output. Independent branches run concurrently as one fork/join group
(:meth:`DialecticEngine.fork_join`) whose trace, ledger and ids are those
of running the branches one after another; the same fork/join runs the
bisection sides, the N check grades of one text and the aggregated runs,
and groups nest. A group returns what each of its units returned or the
exception that ended it; the caller records its units' outcomes after the
group's events, and one rule (:func:`raise_first`) decides which errors it
then raises. The module also owns grader-transcript parsing and the
acceptance check, which needs all N check grades to be clean 7s; it never
decides when the outer loop stops.

:meth:`DialecticEngine._call` is the one call path of the package: every
model call, including those of conjecture extraction and the judge, is
rendered, sent, recorded as one trace event and, where its reply must
parse, checked there. A failed call (:class:`~proofpipe.gateway.CallFailed`)
ends only the unit that made it: a branch is dropped and recorded as
``branch_failed``; a check grade is recorded as ``check_grade_failed``, and
fails the verify gate or, as an independent grade, counts as a 0. Any other
error, budget exhaustion among them, ends the run.
"""
from __future__ import annotations

import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

from .core import (
    FALLACY_CAP,
    PERFECT_SCORE,
    CandidateSolution,
    GradeReport,
    Issue,
    Lemma,
    Origin,
    PipelineConfig,
    Problem,
    RunState,
    Severity,
)
from .gateway import CallFailed, Lane, ModelGateway, ModelRequest, failure_text
from .prompts import PromptRegistry
from .trace import RunTrace

NO_ISSUES = "NO_ISSUES"
DERIVE_EXPLICITLY = "Derive explicitly"

_BULLET_RE = re.compile(r"^\s*(?:[-*•]|\d+[.)])\s*(.+?)\s*$")
_FINAL_GRADE_RE = re.compile(r"Final Grade\W{0,40}?(\d+)", re.IGNORECASE | re.DOTALL)
_BLUEPRINT_MARKERS = ("The Final Blueprint", "Proof_Submitted_for_Review")

# Sampling temperature per role: generation roles run warmer than
# verification roles.
TEMPERATURES = {"solver": 0.6, "extractor": 0.6, "grader": 0.1, "parser": 0.1, "processor": 0.1, "judge": 0.1}
# Prior candidate solutions serialized into one solver prompt.
PRIOR_SOLUTION_CAP = 3
# The most calls one branch makes, by role (:meth:`DialecticEngine._branch`):
# two drafts and a refine, a censor, a grade and a regrade.
BRANCH_CALLS = {"solver": 3, "processor": 1, "grader": 2}


class GradeParseFailure(CallFailed):
    """The grader transcript carried no recognizable final score."""


@dataclass(frozen=True)
class SolveContext:
    """Material injected into a solver call, rendered deterministically.

    Serialization order is fixed (lemmas, then feedback, then prior
    solutions, then scaffolding) so equal contexts render equally.
    """

    lemmas: tuple[Lemma, ...] = ()
    feedback: tuple[str, ...] = ()
    prior_solutions: tuple[CandidateSolution, ...] = ()
    scaffolding: tuple[str, ...] = ()

    def is_empty(self) -> bool:
        return not (self.lemmas or self.feedback or self.prior_solutions or self.scaffolding)

    def render(self) -> str:
        if self.is_empty():
            return ""
        parts: list[str] = []
        if self.lemmas:
            parts.append("[Independently Verified Lemmas]")
            for i, lem in enumerate(self.lemmas, 1):
                parts.append(f"Lemma {i} ({lem.polarity.value}): {lem.statement}")
                parts.append(f"Proof of Lemma {i}: {lem.proof_text}")
        if self.feedback:
            parts.append("[Feedback]")
            parts.extend(f"- {item}" for item in self.feedback)
        if self.prior_solutions:
            parts.append("[Prior Candidate Solutions]")
            for sol in self.prior_solutions[:PRIOR_SOLUTION_CAP]:
                score = sol.grade.score if sol.grade else "ungraded"
                parts.append(f"Candidate {sol.id} (graded {score}/7):")
                parts.append(sol.proof_text)
        if self.scaffolding:
            parts.append("[Guiding Questions]")
            parts.extend(f"- {q}" for q in self.scaffolding)
        return "\n".join(parts)


EMPTY_CONTEXT = SolveContext()


def split_issue_lines(text: str) -> list[str]:
    """Bullet/numbered lines from a block of grader or censor output."""
    items: list[str] = []
    for line in text.splitlines():
        m = _BULLET_RE.match(line)
        if m and m.group(1):
            items.append(m.group(1))
    return items


def extract_final_proof(solver_output: str) -> str:
    """The reviewer-ready section of a solver transcript, if marked.

    Solver transcripts carry the dialectic log first; the final
    self-contained proof follows the last blueprint marker. Unmarked
    output is taken whole.
    """
    best_idx = -1
    for marker in _BLUEPRINT_MARKERS:
        idx = solver_output.rfind(marker)
        if idx > best_idx:
            best_idx = idx
    if best_idx == -1:
        return solver_output.strip()
    tail = solver_output[best_idx:]
    tail = tail.split("\n", 1)[1] if "\n" in tail else ""
    tail = tail.strip()
    return tail if tail else solver_output.strip()


def parse_grade_transcript(transcript: str) -> GradeReport:
    """Turn a raw grader transcript into a validated report.

    The last "Final Grade"-anchored integer wins (earlier mentions inside
    the grading log are ignored). Issues come from the "Areas for
    Improvement" section; a line tagged Slip is a slip, anything else is
    treated as a fallacy. Scores are coerced where the rubric demands it
    (5 is disallowed, a fallacy caps at 3, a 7 with issues drops to 6) and
    every coercion is recorded in the report's notes.
    """
    matches = list(_FINAL_GRADE_RE.finditer(transcript))
    if not matches:
        raise GradeParseFailure("no Final Grade anchor in grader output")
    score = int(matches[-1].group(1))
    notes: list[str] = []
    if score < 0 or score > 7:
        raise GradeParseFailure(f"final grade {score} outside 0..7")

    issues = tuple(
        Issue(text=t, severity=Severity.SLIP if re.search(r"\bslip\b", t, re.IGNORECASE) else Severity.FALLACY)
        for t in split_issue_lines(_section(transcript, "Areas for Improvement"))
    )
    scaffolding = tuple(split_issue_lines(_section(transcript, "Scaffolding")))

    if score == 5:
        notes.append("score 5 is disallowed; coerced down to 4")
        score = 4
    if any(i.severity is Severity.FALLACY for i in issues) and score > FALLACY_CAP:
        notes.append(f"fallacy present; score capped at {FALLACY_CAP}")
        score = FALLACY_CAP
    if score == PERFECT_SCORE and issues:
        notes.append("perfect score with listed issues; demoted to 6")
        score = 6

    return GradeReport(score=score, issues=issues, scaffolding=scaffolding, notes=tuple(notes))


def _proved(transcript: str) -> tuple[str, dict]:
    proof = extract_final_proof(transcript)
    if not proof:
        raise CallFailed("the reply holds no proof")
    return proof, {}


def _graded(transcript: str) -> tuple[GradeReport, dict]:
    report = parse_grade_transcript(transcript)
    return report, {"score": report.score, "issue_count": len(report.issues), "notes": list(report.notes)}


def _section(transcript: str, header: str) -> str:
    """Text between a named section header and the next bold/section header."""
    pattern = re.compile(re.escape(header) + r"[^\n]*\n(.*?)(?=\n\s*\*\*[A-Z]|\Z)", re.DOTALL | re.IGNORECASE)
    m = pattern.search(transcript)
    return m.group(1) if m else ""


@dataclass
class IdAllocator:
    """Deterministic, zero-padded ids so creation order survives sorting."""

    run_id: str
    counters: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def next(self, kind: str) -> str:
        with self._lock:
            n = self.counters.get(kind, 0)
            self.counters[kind] = n + 1
        return f"{self.run_id}.{kind}{n:04d}"

    def to_dict(self) -> dict:
        return {"run_id": self.run_id, "counters": dict(self.counters)}

    @classmethod
    def from_dict(cls, d: dict) -> "IdAllocator":
        # Not a Record: a marker must hold ``counters``, or a resumed run would restart its ids.
        return cls(run_id=d["run_id"], counters=dict(d["counters"]))


@dataclass(frozen=True)
class Branch:
    """One solve branch to run: a problem, the context it is solved in, and
    the provenance its solution gets.

    ``index`` is the branch number the trace records: the branch's position
    within one fan-out of a context. A caller that gives each branch a
    context of its own leaves every index at 0.
    """

    problem: Problem
    ctx: SolveContext
    origin: Origin
    index: int = 0


def raise_first(outcomes: Iterable, spare: type | tuple[type, ...] = CallFailed) -> None:
    """The join rule of every fork/join group: raise the first of a group's
    ``outcomes`` (:meth:`DialecticEngine.fork_join`) that is an exception
    but not a ``spare`` one. A failed call ends only its unit, which the
    caller has recorded by then; any other error ends the caller."""
    for outcome in outcomes:
        if isinstance(outcome, BaseException) and not isinstance(outcome, spare):
            raise outcome


class DialecticEngine:
    """Executes solve branches and grading against one gateway.

    ``trace`` is the run's :class:`RunTrace`, and ``lane`` is the lane of
    the engine's leaf (the gateway's root lane outside every group), through
    which :meth:`append` records each event. ``state`` is the state of the
    engine's run (None on the engines of groups and of their leaves):
    :meth:`record` grows it with each state event it records, and nothing
    else does.
    """

    def __init__(
        self,
        gateway: ModelGateway,
        registry: PromptRegistry,
        config: PipelineConfig,
        trace: RunTrace,
        run_id: str,
        ids: Optional[IdAllocator] = None,
        lane: Optional[Lane] = None,
        state: Optional[RunState] = None,
    ):
        self.gateway = gateway
        self.registry = registry
        self.config = config
        self.trace = trace
        self.run_id = run_id
        self.ids = ids or IdAllocator(run_id)
        self.lane = lane or gateway.root
        self.state = state

    def append(self, phase: int, kind: str, payload: dict) -> None:
        """Record event ``kind`` of the engine's run through its lane
        (:meth:`~proofpipe.gateway.Lane.record`): into the trace at once, or
        held by a later leaf until its group joins."""
        self.lane.record(self.trace.append, self.run_id, phase, kind, payload)

    def record(self, phase: int, kind: str, item) -> None:
        """Record state event ``kind`` (:data:`~proofpipe.core.STATE_EVENTS`)
        with ``item`` as its payload, and grow the run's state by the item:
        the rule by which :meth:`RunState.fold` rebuilds that state."""
        self.append(phase, kind, item.to_dict())
        if self.state is not None:
            self.state.grow(kind, item)

    # -- gateway plumbing ---------------------------------------------------

    def _call(self, role: str, slots: dict, phase: int, kind: str, extra: dict, parse=None, attempts: int = 1):
        """Render the role's template, call the gateway as ``role`` and record
        the call as one ``kind`` event; every model call of a run goes through
        here. The event records ``role`` and ``slots``, not the prompt:
        ``registry.render(role, slots)`` rebuilds it.

        Without ``parse`` the response is returned. ``parse`` maps the reply
        text to ``(value, fields)``: the fields join the event's payload and
        the value is returned. A reply it rejects is recorded with
        ``parse_error`` and re-prompted until ``attempts`` calls have been
        made; then the parse error is raised. With more than one attempt
        allowed, each event records its ``attempt``.
        """
        request = ModelRequest(
            role=role,
            prompt=self.registry.render(role, slots),
            temperature=TEMPERATURES[role],
            max_output_tokens=self.config.max_output_tokens,
            run_id=self.run_id,
            lane=self.lane,
        )
        for attempt in range(attempts):
            resp = self.gateway.complete(request)
            payload = {"role": role, "slots": slots, "response": resp.text, "usage": resp.usage.to_dict(), **extra}
            if resp.coerced:
                payload["coerced"] = resp.coerced
            if attempts > 1:
                payload["attempt"] = attempt
            error = None
            try:
                value, fields = parse(resp.text) if parse else (resp, {})
            except CallFailed as exc:
                error, fields = exc, {"parse_error": str(exc)}
            self.append(phase, kind, {**payload, **fields})
            if error is None:
                return value
        raise error

    def _solver_call(self, problem: Problem, ctx: SolveContext, phase: int, kind: str, extra: dict) -> str:
        """One solver call on ``problem``, its materials the problem's hints
        and then ``ctx``; return the final proof of the reply, which must not
        be empty."""
        hints = "[Provided Hints]\n" + problem.additional_materials if problem.additional_materials else ""
        materials = "\n\n".join(part for part in (hints, ctx.render()) if part)
        slots = {"problem": problem.statement, "additional_materials": materials}
        return self._call("solver", slots, phase, kind, extra, parse=_proved)

    # -- operations ---------------------------------------------------------

    def lazy_phrase_check(self, proof_text: str, phase: int, branch: int) -> list[str]:
        """Censor pass: empty iff the processor answered exactly NO_ISSUES."""
        resp = self._call("processor", {"solution": proof_text}, phase, "censor", {"branch": branch})
        text = resp.text.strip()
        if text == NO_ISSUES:
            return []
        items = split_issue_lines(text)
        if items:
            return items
        # Unparseable or free-form objection: keep it opaque, force a re-draft.
        return [text if text else "(unparseable processor response)"]

    def grade(
        self, proof_text: str, problem: Problem, phase: int, kind: str = "grade", extra: Optional[dict] = None
    ) -> GradeReport:
        """Grade ``proof_text``; a grader gets no materials and is not re-prompted."""
        return self._call(
            "grader",
            {"problem": problem.statement, "solution": proof_text},
            phase,
            kind,
            extra or {},
            parse=_graded,
        )

    def _branch(self, spec: Branch, phase: int, solution_id: str) -> CandidateSolution:
        problem, ctx, branch, origin = spec.problem, spec.ctx, spec.index, spec.origin
        proof = self._solver_call(problem, ctx, phase, "draft", {"branch": branch})

        censor_issues = self.lazy_phrase_check(proof, phase, branch)
        if censor_issues:
            redraft_ctx = SolveContext(
                lemmas=ctx.lemmas,
                feedback=(DERIVE_EXPLICITLY, *censor_issues),
                prior_solutions=(*ctx.prior_solutions, self._as_solution(problem, proof, phase, origin)),
                scaffolding=ctx.scaffolding,
            )
            proof = self._solver_call(problem, redraft_ctx, phase, "draft", {"branch": branch, "redraft": True})

        first_grade = self.grade(proof, problem, phase, "grade", {"branch": branch})

        refine_ctx = SolveContext(
            lemmas=ctx.lemmas,
            feedback=tuple(i.text for i in first_grade.issues) or ("Polish the argument; keep every step explicit.",),
            prior_solutions=(self._as_solution(problem, proof, phase, origin, first_grade),),
            scaffolding=first_grade.scaffolding,
        )
        refined = self._solver_call(problem, refine_ctx, phase, "refine", {"branch": branch})

        final_grade = self.grade(refined, problem, phase, "regrade", {"branch": branch})
        return CandidateSolution(
            id=solution_id,
            problem_id=problem.id,
            proof_text=refined,
            origin=origin,
            phase=phase,
            grade=final_grade,
        )

    def _as_solution(self, problem, proof, phase, origin, grade=None) -> CandidateSolution:
        # Ephemeral wrapper for feeding a draft back into a context; not
        # allocated an id and never stored in memory.
        return CandidateSolution(
            id="draft",
            problem_id=problem.id,
            proof_text=proof,
            origin=origin,
            phase=phase,
            grade=grade,
        )

    def dialectic_solve(
        self,
        problem: Problem,
        ctx: SolveContext,
        count: int,
        phase: int,
        origin: Origin,
    ) -> list[CandidateSolution]:
        """Run ``count`` independent branches; results ordered by branch index
        (:meth:`solve_branches`)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return self.solve_branches([Branch(problem, ctx, origin, b) for b in range(count)], phase)

    def solve_branches(self, branches: Sequence[Branch], phase: int) -> list[CandidateSolution]:
        """Solve ``branches`` as one fork/join group; solutions in branch order.

        Every branch runs to its end even when a sibling fails. After the
        join each branch is recorded, in branch order: a completed solution
        as a ``solution`` event (:meth:`record`), so it is in the run's state
        whatever happens next; a branch that a failed call ended is dropped
        and recorded as ``branch_failed``. Then :func:`raise_first` raises
        any other error, budget exhaustion among them.
        """
        done: list[CandidateSolution] = []
        outcomes = self.fork_branches(branches, phase)
        for solution_id, outcome in outcomes:
            if isinstance(outcome, CandidateSolution):
                done.append(outcome)
                self.record(phase, "solution", outcome)
            elif isinstance(outcome, CallFailed):
                failure = {"solution_id": solution_id, "error": failure_text(outcome)}
                self.append(phase, "branch_failed", failure)
        raise_first(outcome for _, outcome in outcomes)
        return done

    def fork_branches(self, branches: Sequence[Branch], phase: int) -> list[tuple[str, CandidateSolution | BaseException]]:
        """:meth:`fork_join` over solve branches: ``(solution id, outcome)``
        in branch order, each outcome a :class:`CandidateSolution` or the
        exception that ended its branch. Solution ids are allocated at the
        fork, in branch order. Each earlier branch keeps its worst case,
        :data:`BRANCH_CALLS` at ``max_output_tokens`` each."""
        ids = [self.ids.next("s") for _ in branches]
        tasks = [partial(DialecticEngine._branch, spec=b, phase=phase, solution_id=i) for b, i in zip(branches, ids)]
        reserve = sum(BRANCH_CALLS.values()) * self.config.max_output_tokens
        return list(zip(ids, self.fork_join(tasks, reserve)))

    def fork_join(self, tasks: Sequence[Callable[["DialecticEngine"], object]], reserve: int) -> list:
        """Run every task at once, each on its own thread, as the leaves of
        one group; return, in task order, what each task returned or the
        exception that ended it.

        A task is called with an engine of its own, whose lane is its leaf's.
        The first leaf records as it goes, through the engine's lane; every
        later leaf holds its trace events, markers and ledger entries in its
        lane, and the gateway's join commits them leaf by leaf in task order
        (:meth:`~proofpipe.gateway.ModelGateway.join`). So trace, ledger and
        ids are those of a run that ran the tasks one after another, and
        what the caller records next follows the group's last event. A task
        may fork a group of its own: that group commits into the task's
        leaf, and its calls wait on the earlier leaves of this group too.

        The gateway forks the engine's lane into the group's lanes
        (:meth:`~proofpipe.gateway.ModelGateway.fork`): the budget that
        decides the engine's calls keeps ``reserve`` tokens for each earlier
        leaf, and every later leaf spends ahead of its turn only within an
        equal share of the rest, so what is admitted does not depend on how
        far the leaves have got. The first call of a later leaf whose share
        cannot hold one call waits at admission for the leaf's turn
        (:meth:`~proofpipe.gateway.ModelGateway.complete`). The first leaf
        spends from the engine's lane.
        """
        if not tasks:
            return []
        lanes = self.gateway.fork(self.lane, len(tasks), reserve)
        # One thread per leaf, so every leaf's calls can be in flight at once.
        with ThreadPoolExecutor(max_workers=len(lanes)) as pool:
            futures = [pool.submit(self._run_leaf, *leaf) for leaf in zip(tasks, lanes)]
        self.gateway.join(lanes)
        return [future.exception() or future.result() for future in futures]

    def _run_leaf(self, task: Callable[["DialecticEngine"], object], lane: Lane):
        try:
            return task(DialecticEngine(self.gateway, self.registry, self.config, self.trace, self.run_id, self.ids, lane))
        finally:
            lane.done.set()  # later leaves may be waiting for their turn

    def verified_success(self, solution: CandidateSolution, problem: Problem, n: Optional[int] = None) -> bool:
        """True iff all ``n`` fresh grades (:meth:`check_grades`) are perfect
        with zero issues; a grade whose call failed is a miss. A miss does
        not stop its sibling grades: all ``n`` are made."""
        n = n if n is not None else self.config.verify_repeats
        if n < 1:
            raise ValueError("n must be >= 1")
        return all(
            not isinstance(g, CallFailed) and g.clean_perfect for g in self.check_grades(solution, problem, solution.phase, n)
        )

    def grade_independent(self, solution: CandidateSolution, problem: Problem, n: int, phase: int) -> list[GradeReport]:
        """N fresh grades (:meth:`check_grades`) for mean-score comparisons; a
        grade whose call failed counts as a 0, with the error in its notes."""
        return [
            GradeReport(score=0, notes=(failure_text(g),)) if isinstance(g, CallFailed) else g
            for g in self.check_grades(solution, problem, phase, n)
        ]

    def check_grades(
        self, solution: CandidateSolution, problem: Problem, phase: int, n: int
    ) -> list[GradeReport | CallFailed]:
        """Grade ``solution`` ``n`` times as one fork/join group, ordinals
        0..n-1; for each grade its report, or the failure that ended it.

        The grades do not depend on each other, so all of them are in
        flight at once; each earlier leaf keeps one grader call at
        ``max_output_tokens`` as its reserve. Each grade records itself, so
        after the join :func:`raise_first` only raises any other error,
        budget exhaustion among them.
        """
        tasks = [
            partial(DialecticEngine._check_grade, solution=solution, problem=problem, phase=phase, ordinal=k) for k in range(n)
        ]
        grades = self.fork_join(tasks, self.config.max_output_tokens)
        raise_first(grades)
        return grades

    def _check_grade(self, solution: CandidateSolution, problem: Problem, phase: int, ordinal: int) -> GradeReport:
        """One check grade; a failed one is recorded as ``check_grade_failed``
        and raised. The event's ``slots["solution"]`` is the exact text graded."""
        try:
            return self.grade(
                solution.proof_text,
                problem,
                phase=phase,
                kind="check_grade",
                extra={"solution_id": solution.id, "ordinal": ordinal},
            )
        except CallFailed as exc:
            failure = {"solution_id": solution.id, "ordinal": ordinal, "error": failure_text(exc)}
            self.append(phase, "check_grade_failed", failure)
            raise
