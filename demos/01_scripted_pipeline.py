#!/usr/bin/env python3
"""Walk the full pipeline on a scripted backend.

The script below stages a classic failure mode: every direct attempt at the
main problem stalls at 6/7 (the grader keeps finding the same asserted
step), so the pipeline extracts the load-bearing claim behind the stall,
tries to prove the claim AND its negation in fresh detached contexts, and
discovers the negation is what's true. With that disproof in its lemma
memory, the next round of guided solving produces a proof that three
fresh grades, made at once, all accept.

Run: python3 demos/01_scripted_pipeline.py
"""
from proofpipe import (
    ModelGateway,
    Orchestrator,
    PipelineConfig,
    Problem,
    PromptRegistry,
    ScriptRule,
    ScriptedBackend,
)
from proofpipe.trace import RunTrace


def grader_verdict(score, issue=None):
    lines = ["**Part 2: The Final Verdict**", "", "**Coroner's Report:**"]
    lines.append("Clean bill of health." if issue is None else "One recurring gap.")
    if issue:
        lines += ["", "**Areas for Improvement:**", f"1. **Slip**: {issue}", ""]
    lines += ["**Final Grade:**", f"{score}/7"]
    return "\n".join(lines)


PROBLEM = Problem(
    id="demo-well",
    statement="MAIN: show that every shuffled deck admits a monotone relabeling.",
)

CONJECTURE = "CLAIM_FIX: every shuffled deck of size n has a fixed point under relabeling."
NEGATION = "CLAIM_NOFIX: there exists a shuffled deck of size n with no fixed point under relabeling."

SCRIPT = ScriptedBackend(
    [
        # Once the disproof (CLAIM_NOFIX) reaches the solver's materials for
        # the MAIN problem, it finds the real argument.
        ScriptRule("solver", ["MAIN", "FINAL:"], [{"text": "FINAL: relabel greedily; no fixed point is needed."}], repeat_last=True),
        ScriptRule("solver", ["MAIN", "CLAIM_NOFIX"], [{"text": "FINAL: relabel greedily; no fixed point is needed."}], repeat_last=True),
        # Detached side solves for the extracted pair.
        ScriptRule("solver", "CLAIM_NOFIX", [{"text": "NOFIX_PROOF: the 2-cycle deck has no fixed point."}], repeat_last=True),
        ScriptRule("solver", "CLAIM_FIX", [{"text": "FIX_ATTEMPT: induction stalls at the swap case."}], repeat_last=True),
        # Everything else plateaus.
        ScriptRule("solver", None, [{"text": "PLATEAU: counting argument; key step asserted."}], repeat_last=True),
        ScriptRule("processor", None, [{"text": "NO_ISSUES"}], repeat_last=True),
        ScriptRule("grader", "FINAL:", [{"text": grader_verdict(7)}], repeat_last=True),
        ScriptRule("grader", "NOFIX_PROOF", [{"text": grader_verdict(7)}], repeat_last=True),
        ScriptRule("grader", None, [{"text": grader_verdict(6, "the key step is asserted, not derived")}], repeat_last=True),
        ScriptRule("extractor", None, [{"text": "The stall hinges on one claim about fixed points."}], repeat_last=True),
        ScriptRule(
            "parser",
            None,
            [{"text": '{"conjectures": ["%s"], "negations": ["%s"], "proof": "Assuming the claim, relabel via the fixed point."}' % (CONJECTURE, NEGATION)}],
            repeat_last=True,
        ),
    ]
)


def main():
    config = PipelineConfig(
        initial_iterations=1,
        conjecture_iterations=2,
        solver_width=2,
        parallel_runs=1,
        token_budget=2_000_000,
        max_output_tokens=2048,
    )
    gateway = ModelGateway(SCRIPT, token_budget=config.token_budget)
    orchestrator = Orchestrator(gateway, PromptRegistry.load(), config)
    trace = RunTrace()

    result = orchestrator.run(PROBLEM, trace=trace)

    print(f"status: {result.status}")
    print(f"final solution: {result.solution.proof_text}")
    print(f"final grade: {result.solution.grade.score}/7")
    print()
    print("lemma memory after the run:")
    for lemma in result.state.lemma_memory:
        print(f"  [{lemma.polarity.value}] {lemma.statement}  (g_pos={lemma.g_pos}, g_neg={lemma.g_neg})")
    print()
    phases = [e.payload["phase"] for e in trace.of_kind("phase_start")]
    print(f"phase sequence: {phases}")
    print(f"model calls: {len(gateway.ledger.entries)}  tokens: {gateway.tokens_consumed}")
    print(f"spend: ${gateway.ledger.grand_total()}")


if __name__ == "__main__":
    main()
