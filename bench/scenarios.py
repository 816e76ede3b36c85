"""Seeded scenario generator: problem files and scripted-backend scripts.

A run solves a pool of POOL scenarios drawn from its seed. The varied
properties follow a balanced design: scenario r (by proof length) draws its
length from the r-th of POOL equal strata, and the twelve (pairs, issues)
combinations are spread over the strata the same way in every pool. The
seed picks the length within each stratum, every text, and the order of
the scenarios. So per-op figures averaged over the pool move little from
one seed to the next while every input still comes from the seed.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Every (pairs, issues) combination once.
POOL = 12

PROOF_WORDS = (300, 1000)
ISSUES_PER_GRADE = (1, 2, 3, 4)
PAIRS_PER_EXTRACTION = (1, 2, 3)

# Plain mathematical prose. No word is a scenario marker or one of the
# referential phrases the conjecture linter flags.
_VOCAB = (
    "let n be a positive integer and consider the set of all finite sequences "
    "whose terms are bounded by n we claim that every such sequence admits a "
    "monotone subsequence of length at least the square root of its size "
    "suppose otherwise then each term carries a pair of labels counting the "
    "longest increasing and decreasing runs ending there distinct terms get "
    "distinct pairs so the number of pairs exceeds the length which is a "
    "contradiction hence the bound holds by induction on the length with the "
    "base case immediate and the inductive step following from the pigeonhole "
    "principle applied to the labels modulo the prime p"
).split()


def prose(rng: random.Random, words: int) -> str:
    return " ".join(rng.choice(_VOCAB) for _ in range(words))


def grader_text(score: int, issues: list[tuple[str, str]] = ()) -> str:
    """A grader transcript in the shape ``parse_grade_transcript`` reads."""
    parts = ["**Part 2: The Final Verdict**", "", "**Coroner's Report:**"]
    parts.append("Reviewed in full." if issues else "Clean bill of health.")
    parts.append("")
    if issues:
        parts.append("**Areas for Improvement:**")
        parts.extend(f"{i}. **{severity}**: {text}" for i, (text, severity) in enumerate(issues, 1))
        parts.append("")
    parts += ["**Final Grade:**", f"{score}/7"]
    return "\n".join(parts)


def parser_json(conjectures: list[str], negations: list[str], proof: str) -> str:
    return json.dumps({"conjectures": conjectures, "negations": negations, "proof": proof})


def rule(role: str, match, responses: list[dict]) -> dict:
    return {"role": role, "match": match, "responses": responses, "repeat_last": True}


@dataclass(frozen=True)
class Scenario:
    index: int
    problem: Path
    script: Path
    expect_text: str  # must appear in solution.txt ("" when any text will do)


def _stratum(rng: random.Random, lo: float, hi: float, r: int) -> float:
    """A seeded value in the r-th of POOL equal-width strata of [lo, hi)."""
    return lo + (r + rng.random()) * (hi - lo) / POOL


def judge_text(rng: random.Random) -> str:
    return f"{prose(rng, 40)}\n<decision>{rng.choice('AB')}</decision>"


def stall_script(rng: random.Random, words: int, issues: int, pairs: int) -> tuple[str, dict]:
    """Every grade is a 2 with fallacies, so both runs end in phase 4."""
    statement = "STALL_PROBLEM: " + prose(rng, 40)
    solver = [{"text": "WEAK_PROOF: " + prose(rng, int(words * rng.uniform(0.8, 1.2)))} for _ in range(3)]
    solver.append({"text": "WEAK_PROOF: " + prose(rng, words)})
    grades = [
        {"text": grader_text(2, [(prose(rng, rng.randint(8, 16)), "Fallacy") for _ in range(issues)])}
        for _ in range(3)
    ]
    conj = [f"CONJ_{k}: " + prose(rng, 14) for k in range(pairs)]
    negs = [f"NEG_{k}: " + prose(rng, 14) for k in range(pairs)]
    rules = [
        rule("solver", None, solver),
        rule("processor", None, [{"text": "NO_ISSUES"}]),
        rule("grader", None, grades),
        rule("extractor", None, [{"text": prose(rng, 120)}]),
        rule("parser", None, [{"text": parser_json(conj, negs, prose(rng, 80))}]),
        rule("judge", None, [{"text": judge_text(rng)}]),
    ]
    return statement, {"rules": rules}


def well_script(rng: random.Random, words: int) -> tuple[str, dict, str]:
    """The cognitive well: 6/7 plateau, a disproved claim, then a verified
    breakthrough that the solver only finds once the disproof is a lemma.

    No reply declares its usage, so as on the stall scenario the scripted
    backend counts tokens from the prompt and reply texts.
    """
    statement = "WELL_PROBLEM: " + prose(rng, 40)
    conj = "CONJ_ALPHA: " + prose(rng, 14)
    neg = "NEG_ALPHA: " + prose(rng, 14)
    breakthrough = "BREAKTHROUGH_PROOF: " + prose(rng, words)
    plateau = "PLATEAU_PROOF: " + prose(rng, words)
    slip = grader_text(6, [(prose(rng, 12), "Slip")])
    rules = [
        rule("solver", ["WELL_PROBLEM", "BREAKTHROUGH_PROOF"], [{"text": breakthrough}]),
        rule("solver", ["WELL_PROBLEM", "NEG_ALPHA"], [{"text": breakthrough}]),
        rule("solver", "NEG_ALPHA", [{"text": "NEG_PROOF: " + prose(rng, words // 2)}]),
        rule("solver", "CONJ_ALPHA", [{"text": "ALPHA_ATTEMPT: " + prose(rng, words // 2)}]),
        rule("solver", None, [{"text": plateau}]),
        rule("processor", None, [{"text": "NO_ISSUES"}]),
        rule("grader", "BREAKTHROUGH_PROOF", [{"text": grader_text(7)}]),
        rule("grader", "NEG_PROOF", [{"text": grader_text(7)}]),
        rule("grader", None, [{"text": slip}]),
        rule("extractor", None, [{"text": prose(rng, 120)}]),
        rule("parser", None, [{"text": parser_json([conj], [neg], prose(rng, 80))}]),
        rule("judge", None, [{"text": judge_text(rng)}]),
    ]
    return statement, {"rules": rules}, breakthrough


def write_pool(kind: str, seed: int, root: Path) -> list[Scenario]:
    """Write POOL problem/script pairs under ``root``; same seed, same bytes."""
    rng = random.Random(f"{kind}:{seed}")
    design = [
        (int(_stratum(rng, *PROOF_WORDS, r)), PAIRS_PER_EXTRACTION[r % 3], ISSUES_PER_GRADE[r // 3])
        for r in range(POOL)
    ]
    rng.shuffle(design)
    scenarios = []
    for i, (words, pairs, issues) in enumerate(design):
        if kind == "stall":
            statement, script = stall_script(rng, words, issues, pairs)
            expect = ""
        elif kind == "well":
            statement, script, expect = well_script(rng, words)
        else:
            raise ValueError(f"unknown scenario kind {kind!r}")
        d = root / f"{kind}{i:02d}"
        d.mkdir(parents=True, exist_ok=True)
        problem = d / "problem.txt"
        problem.write_text(f"id: {kind}-{seed}-{i}\nstatement:\n  {statement}\n", encoding="utf-8")
        script_path = d / "script.json"
        script_path.write_text(json.dumps(script, indent=1) + "\n", encoding="utf-8")
        scenarios.append(Scenario(i, problem, script_path, expect))
    return scenarios
