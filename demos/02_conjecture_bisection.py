#!/usr/bin/env python3
"""Conjecture extraction and bisection, piece by piece.

Shows the strict JSON contract the extractor's output must satisfy, and
how a (claim, negation) pair is resolved: both sides are solved as fresh
problems with no inherited context; exactly one side clearing the
threshold yields a lemma, anything else lands in the failure context.

Run: python3 demos/02_conjecture_bisection.py
"""
from proofpipe import (
    HypothesisPair,
    ModelGateway,
    PipelineConfig,
    PromptRegistry,
    ScriptRule,
    ScriptedBackend,
    classify,
    parse_conjectures,
)
from proofpipe.conjecture import ConjectureEngine
from proofpipe.dialectic import DialecticEngine
from proofpipe.trace import RunTrace

GRADE_7 = "**Final Grade:**\n7/7"
GRADE_3 = (
    "**Areas for Improvement:**\n1. **Fallacy**: the bound never closes\n\n**Final Grade:**\n3/7"
)


def main():
    print("== the strict JSON contract ==")
    raw = """The parser tolerates fences and prose:
```json
{"conjectures": ["Conjecture 1: every trellis is bridgeless"],
 "negations": ["Negation 1: some trellis has a bridge"],
 "proof": "Assuming the conjecture, contract each panel."}
```
done."""
    parsed = parse_conjectures(raw)
    print("conjectures:", parsed.conjectures)
    print("negations:  ", parsed.negations)
    print("(headers like 'Conjecture 1:' are stripped; arrays must be equal length)")
    print()

    print("== the classifier's three branches ==")
    for g_pos, g_neg in ((7, 3), (3, 7), (7, 7), (6, 6)):
        print(f"  g_pos={g_pos} g_neg={g_neg} tau=7 -> {classify(g_pos, g_neg, 7)}")
    print()

    print("== a full bisection: negation wins ==")
    pair = HypothesisPair(
        id="demo.h0",
        conjecture="POSCLAIM: every trellis is bridgeless.",
        negation="NEGCLAIM: some trellis has a bridge.",
    )
    script = ScriptedBackend(
        [
            ScriptRule("solver", "POSCLAIM", [{"text": "POS_ATTEMPT: stalls."}], repeat_last=True),
            ScriptRule("solver", "NEGCLAIM", [{"text": "NEG_PROOF: the ladder trellis has a bridge."}], repeat_last=True),
            ScriptRule("processor", None, [{"text": "NO_ISSUES"}], repeat_last=True),
            ScriptRule("grader", "POS_ATTEMPT", [{"text": GRADE_3}], repeat_last=True),
            ScriptRule("grader", "NEG_PROOF", [{"text": GRADE_7}], repeat_last=True),
        ]
    )
    config = PipelineConfig(parallel_runs=1, max_output_tokens=2048)
    gateway = ModelGateway(script, token_budget=config.token_budget)
    trace = RunTrace()
    registry = PromptRegistry.load()
    engine = ConjectureEngine(DialecticEngine(gateway, registry, config, trace, "demo"))
    outcome = engine.verify_hypotheses([pair], tau=7)
    for lemma in outcome.proven:
        print(f"proven [{lemma.polarity.value}]: {lemma.statement}")
        print(f"  carried proof: {lemma.proof_text}")
    print()

    print("== contextual detachment, checked against the trace ==")
    # A call event records role and slots; rendering them rebuilds the prompt.
    side_prompts = [registry.render(e.payload["role"], e.payload["slots"]) for e in trace.of_kind("draft")]
    leaked = any("trellis is bridgeless" in p and "NEGCLAIM" in p for p in side_prompts)
    print(f"side solves issued: {len(side_prompts)}; cross-contaminated prompts: {leaked}")
    print("each side saw only its own statement plus '(none provided)' materials")


if __name__ == "__main__":
    main()
