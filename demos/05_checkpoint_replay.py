#!/usr/bin/env python3
"""Checkpointing, resume, and replay verification.

A run records a checkpoint marker, which only names its run, at every phase
boundary. Resuming from any marker runs the solve again from its start
against its own trace. With the same script it reproduces the original
final solution and the identical ledger. With a backend that has no script
(a hosted model, say), every call the trace recorded is answered from the
trace, so resuming a whole trace asks the backend for nothing. A replay
re-executes the whole trace from its embedded script and reports the first
divergence, which is how you detect a trace that no longer matches its
script.

Run: python3 demos/05_checkpoint_replay.py
"""
import importlib.util
from pathlib import Path

from proofpipe import ModelGateway, Orchestrator, PromptRegistry, ScriptedBackend
from proofpipe.orchestrator import replay
from proofpipe.trace import RunTrace

_spec = importlib.util.spec_from_file_location(
    "demo01", Path(__file__).parent / "01_scripted_pipeline.py"
)
demo01 = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(demo01)


class Unscripted:
    """A backend with no script that counts the calls it is asked."""

    backend_id = "scripted"  # the trace's backend, which resume checks
    calls = 0

    def complete(self, req):
        Unscripted.calls += 1
        raise RuntimeError(f"the trace holds no reply for this {req.role} call")


def fresh_setup(backend=None):
    config = demo01.PipelineConfig(
        initial_iterations=1,
        conjecture_iterations=2,
        solver_width=2,
        parallel_runs=1,
        token_budget=2_000_000,
        max_output_tokens=2048,
    )
    backend = backend or ScriptedBackend.from_dict(demo01.SCRIPT.to_dict())  # fresh cursors
    gateway = ModelGateway(backend, token_budget=config.token_budget)
    return Orchestrator(gateway, PromptRegistry.load(), config), gateway, config


def main():
    orchestrator, gateway, config = fresh_setup()
    trace = RunTrace()
    original = orchestrator.run(demo01.PROBLEM, trace=trace)
    print(f"original run: {original.status}, final text: {original.solution.proof_text[:40]}...")
    print(f"checkpoints taken: {sorted(trace.checkpoints)}")
    print()

    print("== resume from each boundary ==")
    for checkpoint_id in sorted(trace.checkpoints):
        if checkpoint_id.endswith(".final"):
            continue
        orch2, gateway2, _ = fresh_setup()
        resumed = orch2.resume(trace, checkpoint_id)
        same_text = resumed.solution.proof_text == original.solution.proof_text
        same_ledger = gateway2.ledger.to_dict() == gateway.ledger.to_dict()
        print(f"  {checkpoint_id}: identical text={same_text}, identical ledger={same_ledger}")
    print()

    print("== resume with a backend that has no script: the trace answers ==")
    orch3, gateway3, _ = fresh_setup(Unscripted())
    resumed = orch3.resume(trace, "run1.p1.done")
    same_text = resumed.solution.proof_text == original.solution.proof_text
    same_ledger = gateway3.ledger.to_dict() == gateway.ledger.to_dict()
    print(f"  run1.p1.done: identical text={same_text}, identical ledger={same_ledger}, backend calls={Unscripted.calls}")
    print()

    print("== replay the trace against its embedded script ==")
    divergence = replay(trace)
    print(f"  divergence: {divergence if divergence else 'none; re-run is identical'}")

    print()
    print("== replay after tampering with one scripted grade ==")
    script = trace.of_kind("script_attachment")[0].payload["script"]
    for rule in script["rules"]:
        if rule["role"] == "grader" and rule["match"] is None:
            rule["responses"] = [{"text": "**Final Grade:**\n4/7"}]
    divergence = replay(trace)
    print(f"  first divergence at event {divergence['index']}: {divergence['expected']['kind']}")


if __name__ == "__main__":
    main()
