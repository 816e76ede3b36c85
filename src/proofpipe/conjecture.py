"""Conjecture extraction and bisection verification.

Stalled proofs go to the extractor, whose free-form output is converted to
strict JSON by a parser-role call and then validated locally. Each
surviving (conjecture, negation) pair is verified by solving both sides as
brand-new problems with no parent-proof context; exactly one side clearing
the threshold yields a lemma, anything else lands in the failure context.
A side that a failed call ended (a backend error, a missing script rule, an
unparseable grade) proves nothing: its pair is recorded as unresolved and
the other pairs go on. Every pair whose two sides finished gets its verdict,
even when another side ran out of budget.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Sequence

from .core import (
    CandidateSolution,
    FailureReason,
    FailureRecord,
    HypothesisPair,
    Lemma,
    Origin,
    Polarity,
    Problem,
)
from .dialectic import EMPTY_CONTEXT, Branch, DialecticEngine, raise_first
from .gateway import CallFailed, failure_text

_HEADER_PREFIX_RE = re.compile(r"^\s*(?:conjecture|negation(?:\s+of\s+conjecture)?)\s*\d*\s*[:.]\s*", re.IGNORECASE)

# Phrases that suggest a statement leans on context it does not restate.
_REFERENTIAL_PHRASES = (
    "as above",
    "as defined above",
    "from conjecture",
    "the previous conjecture",
    "aforementioned",
    "see the proof",
    "defined earlier",
    "the set s from",
)


class ExtractionFailure(CallFailed):
    """Extraction could not produce a valid result, even after a re-prompt.

    Raised as its subclass :class:`ParseError` once the parser's last reply
    still breaks the strict JSON contract.
    """


class ParseError(ExtractionFailure):
    """No JSON object could be recovered from the text."""


class SchemaError(ParseError):
    """JSON recovered, but it violates the strict output contract."""


@dataclass(frozen=True)
class ParsedConjectures:
    conjectures: tuple[str, ...]
    negations: tuple[str, ...]


@dataclass(frozen=True)
class SideAttempt:
    """One side's solve attempt during bisection, kept as partial progress."""

    pair_id: str
    side: str  # "pos" | "neg"
    statement: str
    proof_text: str
    score: int


@dataclass(frozen=True)
class VerifyOutcome:
    proven: tuple[Lemma, ...]
    failed: tuple[FailureRecord, ...]
    attempts: tuple[SideAttempt, ...]


def find_json_object(text: str) -> str:
    """The first balanced ``{...}`` block, tolerant of fences and prose."""
    start = text.find("{")
    while start != -1:
        depth = 0
        in_string = False
        escape = False
        for i in range(start, len(text)):
            ch = text[i]
            if in_string:
                if escape:
                    escape = False
                elif ch == "\\":
                    escape = True
                elif ch == '"':
                    in_string = False
            elif ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    return text[start : i + 1]
        start = text.find("{", start + 1)
    raise ParseError("no JSON object found")


def strip_header_prefix(text: str) -> str:
    return _HEADER_PREFIX_RE.sub("", text.strip())


def parse_conjectures(raw: str) -> ParsedConjectures:
    """Validate a conjecture-parser response against the strict contract.

    Tolerates code fences and surrounding prose around the JSON object.
    Arrays must be equal length with non-empty strings; "Conjecture N:"
    style headers are stripped. Empty arrays are a valid (empty) result; a
    non-empty one must come with a non-empty rewritten proof.
    """
    try:
        obj = json.loads(find_json_object(raw))
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("top-level JSON value is not an object")
    conjectures = obj.get("conjectures")
    negations = obj.get("negations")
    proof = obj.get("proof", "")
    if not isinstance(conjectures, list) or not isinstance(negations, list):
        raise SchemaError("conjectures and negations must be arrays")
    if len(conjectures) != len(negations):
        raise SchemaError(
            f"conjectures ({len(conjectures)}) and negations ({len(negations)}) differ in length"
        )
    if proof is None:
        proof = ""
    if not isinstance(proof, str):
        raise SchemaError("proof must be a string")
    cleaned_c = []
    cleaned_n = []
    for c, n in zip(conjectures, negations):
        if not isinstance(c, str) or not isinstance(n, str):
            raise SchemaError("conjecture entries must be strings")
        c, n = strip_header_prefix(c), strip_header_prefix(n)
        if not c or not n:
            raise SchemaError("conjecture entries must be non-empty")
        cleaned_c.append(c)
        cleaned_n.append(n)
    if cleaned_c and not proof.strip():
        raise SchemaError("non-empty extraction must carry a rewritten proof")
    return ParsedConjectures(tuple(cleaned_c), tuple(cleaned_n))


def lint_self_containedness(statement: str) -> list[str]:
    """Warnings for phrases that smell like references to absent context."""
    lower = statement.lower()
    return [f"possibly non-self-contained: {phrase!r}" for phrase in _REFERENTIAL_PHRASES if phrase in lower]


def classify(g_pos: int, g_neg: int, tau: int) -> str:
    """Bisection verdict for one pair: 'positive', 'negative' or 'ambiguous'.

    Exactly one side reaching the threshold proves that side; the guards
    are disjoint, so no pair can ever prove both its conjecture and its
    negation.
    """
    if g_pos >= tau and g_neg < tau:
        return "positive"
    if g_neg >= tau and g_pos < tau:
        return "negative"
    return "ambiguous"


class ConjectureEngine:
    """Extraction and bisection built on top of a dialectic engine."""

    def __init__(self, dialectic: DialecticEngine):
        self.dialectic = dialectic

    def extract_hypotheses(
        self,
        problem: Problem,
        seeds: Sequence[CandidateSolution],
        lemmas: Sequence[Lemma] = (),
        failures: Sequence[FailureRecord] = (),
        extra_reports: Sequence[str] = (),
        phase: int = 2,
    ) -> tuple[HypothesisPair, ...]:
        """Ask the extractor for load-bearing conjecture pairs.

        The extractor sees the seed proofs plus established lemmas, prior
        bisection failures (verbatim) and any grader reports; its raw
        output goes through the parser role and the strict JSON contract.
        One parser re-prompt is allowed before giving up.
        """
        if not seeds:
            raise ValueError("seeds must be non-empty")
        solutions_blob = "\n\n".join(
            f"--- Candidate solution {i} (graded {s.grade.score}/7) ---\n{s.proof_text}"
            for i, s in enumerate(seeds, 1)
        )
        facts: list[str] = []
        for lem in lemmas:
            facts.append(f"Established lemma ({lem.polarity.value}): {lem.statement}")
        for fail in failures:
            facts.append(
                f"Previously unresolved conjecture ({fail.reason.value}): {fail.conjecture}"
                + (f" [{fail.detail}]" if fail.detail else "")
            )
        for rep in extra_reports:
            facts.append(f"Grader report: {rep}")
        for s in seeds:
            for issue in s.grade.issues:
                facts.append(f"Grader issue ({issue.severity.value}) on candidate: {issue.text}")

        raw = self.dialectic._call(
            "extractor",
            {
                "problem": problem.statement,
                "solution": solutions_blob,
                "additional_materials": "\n".join(facts),
            },
            phase,
            "extract",
            {"seed_ids": [s.id for s in seeds]},
        ).text
        parsed = self.dialectic._call(
            "parser",
            {"solution": raw},
            phase,
            "extract_parse",
            {},
            parse=lambda text: (parse_conjectures(text), {}),
            attempts=2,
        )
        pairs = []
        for c, n in zip(parsed.conjectures, parsed.negations):
            pair = HypothesisPair(
                id=self.dialectic.ids.next("h"),
                conjecture=c,
                negation=n,
            )
            for warning in (*lint_self_containedness(c), *lint_self_containedness(n)):
                self.dialectic.append(phase, "lint_warning", {"pair_id": pair.id, "warning": warning})
            pairs.append(pair)

        budget = self.dialectic.config.extraction_budget
        if len(pairs) > budget:
            self.dialectic.append(phase, "pairs_truncated", {"kept": budget, "dropped": len(pairs) - budget})
            pairs = pairs[:budget]
        return tuple(pairs)

    def verify_hypotheses(self, pairs: Sequence[HypothesisPair], tau: int, phase: int = 2) -> VerifyOutcome:
        """Bisection-verify each pair in a fresh, detached context.

        Both sides are solved as new problems with empty additional
        materials and graded once each; all sides of all pairs run at once
        as one fork/join group. After the join, each pair is recorded in
        pair order: each finished side as ``side_solved``, then the verdict
        as a ``pair_proven`` or ``pair_failed`` state event
        (:meth:`DialecticEngine.record`). A model failure on either side
        marks the pair unresolved (distinct from ambiguous). A pair with a
        side that any other error ended, budget exhaustion among them, gets
        no verdict, and :func:`~proofpipe.dialectic.raise_first` raises that
        error once every pair is recorded.
        """
        proven: list[Lemma] = []
        failed: list[FailureRecord] = []
        attempts: list[SideAttempt] = []
        branches = []
        for pair in pairs:
            for side, statement in (("pos", pair.conjecture), ("neg", pair.negation)):
                # Contextual detachment: the side is a brand-new problem with
                # no materials from the parent proof.
                side_problem = Problem(id=f"{pair.id}.{side}", statement=statement)
                branches.append(Branch(side_problem, EMPTY_CONTEXT, Origin.FRESH))
        outcomes = self.dialectic.fork_branches(branches, phase)
        for pair, pos, neg in zip(pairs, outcomes[::2], outcomes[1::2]):
            pos = self._side_attempt(pair, "pos", pair.conjecture, pos, phase)
            neg = self._side_attempt(pair, "neg", pair.negation, neg, phase)
            errors = [r for r in (pos, neg) if isinstance(r, BaseException)]
            if not all(isinstance(e, CallFailed) for e in errors):
                continue  # a side did not finish: no verdict
            if errors:
                reason, detail = FailureReason.UNRESOLVED, failure_text(errors[0])
            else:
                attempts.extend((pos, neg))
                verdict = classify(pos.score, neg.score, tau)
                if verdict != "ambiguous":
                    winner = pos if verdict == "positive" else neg
                    lemma = Lemma(
                        statement=winner.statement,
                        polarity=Polarity.POSITIVE if verdict == "positive" else Polarity.NEGATIVE,
                        proof_text=winner.proof_text,
                        g_pos=pos.score,
                        g_neg=neg.score,
                        pair_id=pair.id,
                        threshold=tau,
                    )
                    proven.append(lemma)
                    self.dialectic.record(phase, "pair_proven", lemma)
                    continue
                reason, detail = FailureReason.AMBIGUOUS, f"g_pos={pos.score}, g_neg={neg.score}, tau={tau}"
            record = FailureRecord(
                pair_id=pair.id,
                conjecture=pair.conjecture,
                reason=reason,
                detail=detail,
            )
            failed.append(record)
            self.dialectic.record(phase, "pair_failed", record)
        raise_first(outcomes)
        return VerifyOutcome(tuple(proven), tuple(failed), tuple(attempts))

    def _side_attempt(
        self, pair: HypothesisPair, side: str, statement: str, outcome: CandidateSolution | BaseException, phase: int
    ) -> SideAttempt | BaseException:
        """The side's attempt, recorded in the trace, or the error that ended it."""
        if isinstance(outcome, BaseException):
            return outcome
        attempt = SideAttempt(
            pair_id=pair.id,
            side=side,
            statement=statement,
            proof_text=outcome.proof_text,
            score=outcome.grade.score,
        )
        self.dialectic.append(
            phase,
            "side_solved",
            {"pair_id": pair.id, "side": side, "statement": attempt.statement, "score": attempt.score},
        )
        return attempt
