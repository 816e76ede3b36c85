"""Shared fixtures: scripted scenarios and transcript builders."""
from __future__ import annotations

import dataclasses
import json

import pytest

from proofpipe.core import PipelineConfig, Problem
from proofpipe.gateway import ModelGateway, ScriptRule, ScriptedBackend
from proofpipe.prompts import PromptRegistry


@pytest.fixture(scope="session")
def registry() -> PromptRegistry:
    return PromptRegistry.load()


def grader_text(score: int, issues: tuple = (), scaffolding: tuple = ()) -> str:
    """A grader transcript in the shape the parser expects.

    ``issues`` entries are (text, "Slip"|"Fallacy") pairs.
    """
    parts = [
        "**Part 2: The Final Verdict**",
        "",
        "**Coroner's Report:**",
        "Reviewed in full." if issues else "Clean bill of health.",
        "",
    ]
    if issues:
        parts.append("**Areas for Improvement:**")
        for i, (text, severity) in enumerate(issues, 1):
            parts.append(f"{i}. **{severity}**: {text}")
        parts.append("")
    if scaffolding:
        parts.append("**Scaffolding Questions:**")
        for q in scaffolding:
            parts.append(f"- {q}")
        parts.append("")
    parts.append("**Final Grade:**")
    parts.append(f"{score}/7")
    return "\n".join(parts)


def parser_json(conjectures: list[str], negations: list[str], proof: str = "Assume the conjectures; the claim follows.") -> str:
    return json.dumps({"conjectures": conjectures, "negations": negations, "proof": proof})


def rules_clean(proof_text: str = "GOOD_PROOF: the bound holds by direct induction.") -> list[ScriptRule]:
    """Every draft is perfect; the run verifies in phase 1, iteration 1."""
    return [
        ScriptRule("solver", None, [{"text": proof_text}], repeat_last=True),
        ScriptRule("processor", None, [{"text": "NO_ISSUES"}], repeat_last=True),
        ScriptRule("grader", None, [{"text": grader_text(7)}], repeat_last=True),
    ]


WELL_STATEMENT = "WELL_PROBLEM: show that every shuffled deck admits a monotone relabeling."
WELL_CONJECTURE = "CONJ_ALPHA: every shuffled deck of size n has a fixed point under relabeling."
WELL_NEGATION = "NEG_ALPHA: there exists a shuffled deck of size n with no fixed point under relabeling."
PLATEAU_TEXT = "PLATEAU_PROOF: partial argument via direct counting; the key step is asserted."
BREAKTHROUGH_TEXT = "BREAKTHROUGH_PROOF: using the disproof of the fixed-point claim, relabel greedily."
NEG_SIDE_PROOF = "NEG_PROOF: the 2-cycle deck has no fixed point; construction follows."
ALPHA_ATTEMPT = "ALPHA_ATTEMPT: attempted induction on deck size; base case only."


def rules_well() -> list[ScriptRule]:
    """The cognitive-well scenario.

    Plateau drafts grade 6 forever; the grader only accepts the
    breakthrough proof, which the solver only produces once the disproved
    fixed-point claim (the negative lemma) appears in its materials.
    """
    return [
        ScriptRule("solver", ["WELL_PROBLEM", "BREAKTHROUGH_PROOF"], [{"text": BREAKTHROUGH_TEXT}], repeat_last=True),
        ScriptRule("solver", ["WELL_PROBLEM", "NEG_ALPHA"], [{"text": BREAKTHROUGH_TEXT}], repeat_last=True),
        ScriptRule("solver", "NEG_ALPHA", [{"text": NEG_SIDE_PROOF}], repeat_last=True),
        ScriptRule("solver", "CONJ_ALPHA", [{"text": ALPHA_ATTEMPT}], repeat_last=True),
        ScriptRule("solver", None, [{"text": PLATEAU_TEXT}], repeat_last=True),
        ScriptRule("processor", None, [{"text": "NO_ISSUES"}], repeat_last=True),
        ScriptRule("grader", "BREAKTHROUGH_PROOF", [{"text": grader_text(7)}], repeat_last=True),
        ScriptRule("grader", "NEG_PROOF", [{"text": grader_text(7)}], repeat_last=True),
        ScriptRule(
            "grader",
            None,
            [{"text": grader_text(6, issues=(("the key counting step is asserted, not derived", "Slip"),))}],
            repeat_last=True,
        ),
        ScriptRule("extractor", None, [{"text": "Part 2 narrative with one load-bearing claim."}], repeat_last=True),
        ScriptRule("parser", None, [{"text": parser_json([WELL_CONJECTURE], [WELL_NEGATION])}], repeat_last=True),
    ]


def rules_all_twos() -> list[ScriptRule]:
    """Everything grades 2 with a fallacy; the run must end via the
    post-enhancement path."""
    return [
        ScriptRule("solver", None, [{"text": "WEAK_PROOF: a sketch without the main lemma."}], repeat_last=True),
        ScriptRule("processor", None, [{"text": "NO_ISSUES"}], repeat_last=True),
        ScriptRule(
            "grader",
            None,
            [{"text": grader_text(2, issues=(("the main claim is unsupported", "Fallacy"),))}],
            repeat_last=True,
        ),
        ScriptRule("extractor", None, [{"text": "One conjecture identified."}], repeat_last=True),
        ScriptRule(
            "parser",
            None,
            [{"text": parser_json(["CONJ_Q: the lattice count is even."], ["NEG_Q: the lattice count is odd."])}],
            repeat_last=True,
        ),
    ]


# Over 256 characters on its own, so every reply it lengthens is a long call
# text.
LONG_TAIL = (
    " The argument is written out in full: each step names the lemma it uses, every case of the"
    " induction is checked on its own, and the bound on the relabeling is derived from the counting"
    " identity rather than asserted, so that a reader can follow the proof line by line without"
    " filling in any gap that the sketch above leaves implicit."
)


def with_long_replies(rules: list[ScriptRule]) -> list[ScriptRule]:
    """``rules`` with every reply but the processor's exact verdict made long:
    solver and extractor replies gain :data:`LONG_TAIL`, a grade a grading
    log before its verdict, a parser reply a longer proof."""

    def lengthen(role: str, text: str) -> str:
        if role == "processor":
            return text
        if role == "grader":
            return "Grading log." + LONG_TAIL + "\n\n" + text
        if role == "parser":
            data = json.loads(text)
            return json.dumps({**data, "proof": data["proof"] + LONG_TAIL})
        return text + LONG_TAIL

    return [
        dataclasses.replace(rule, responses=[{**r, "text": lengthen(rule.role, r["text"])} for r in rule.responses])
        for rule in rules
    ]


def well_problem() -> Problem:
    return Problem(id="well-1", statement=WELL_STATEMENT)


def clean_problem() -> Problem:
    return Problem(id="clean-1", statement="Prove that the sum of two even integers is even.")


def small_config(**overrides) -> PipelineConfig:
    base = dict(
        initial_iterations=1,
        conjecture_iterations=2,
        solver_width=2,
        verify_repeats=3,
        extraction_budget=3,
        parallel_runs=1,
        token_budget=10_000_000,
        max_output_tokens=2048,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def make_gateway(rules: list[ScriptRule], config: PipelineConfig, **kwargs) -> ModelGateway:
    return ModelGateway(
        ScriptedBackend(rules),
        token_budget=config.token_budget,
        retry_attempts=config.retry_attempts,
        strict_budget=config.strict_budget,
        sleep=lambda _: None,
        **kwargs,
    )
