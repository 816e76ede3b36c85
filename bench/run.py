"""proofpipe benchmark: end-to-end cost and latency, and a traced per-layer run.

    python3 bench/run.py --workload stall_host --seed 1 --seconds 30 --trace 0

Workloads (inputs come only from the seed; see bench/scenarios.py):
  stall_host      default-config stall solves through ``proofpipe solve``;
                  every grade is a 2, no modelled latency, so host work
                  (trace, checkpoints, digests, rendering, ledger) is the cost.
  well_latency    cognitive-well solves through the same CLI path, with each
                  model call sleeping a + b*(output+thinking tokens).

One client runs ops back to back in one process and thread (a closed loop),
cycling through the seed's scenario pool and stopping at the cycle boundary
nearest to --seconds (always after at least one cycle). With --trace 0 the last line carries the
end-to-end metrics; with --trace 1 it alternates untraced and traced ops,
and the last line carries the per-layer metrics and the tracing overhead;
after the loop it runs one read-back pass (``proofpipe cost``, ``replay``
and ``Orchestrator.resume``) over each scenario's last traced solve.
Every metric is also printed above that line by name with its unit.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace

import scenarios
from instrument import CallLog, Tracer, install_backend_wrapper, span_targets

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Modelled provider latency per workload: (a seconds, b seconds per output
# token). well_latency models a provider that answers after 1 s and then
# streams 50 tokens/s, sped up 400 times: a call's fixed cost equals 50
# tokens. That shape is an assumption, not a measurement of any provider;
# it weighs each call by the length of its reply, which decides which calls
# make up the critical path.
LATENCY = {
    "stall_host": (0.0, 0.0),
    "well_latency": (0.0025, 5e-5),
}
SETUP_REPEATS = 15
SETUP_CODE = "import proofpipe.cli\nfrom proofpipe.prompts import PromptRegistry\nPromptRegistry.load()\n"


def load_program() -> SimpleNamespace:
    """Import proofpipe from this checkout's sources, and nowhere else."""
    if not (SRC / "proofpipe" / "__init__.py").is_file():
        sys.exit(f"error: no proofpipe sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import proofpipe
    from proofpipe import cli, conjecture, core, dialectic, gateway, orchestrator, prompts, trace

    if SRC not in Path(proofpipe.__file__).resolve().parents:
        sys.exit(f"error: proofpipe was imported from {proofpipe.__file__}, not {SRC}")
    return SimpleNamespace(cli=cli, conjecture=conjecture, core=core, dialectic=dialectic,
                           gateway=gateway, orchestrator=orchestrator, prompts=prompts, trace=trace)


def time_setup() -> float:
    """Wall time of a fresh interpreter importing the CLI and loading templates."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    return time.perf_counter() - start


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class Op:
    scenario: int
    seconds: float = 0.0
    calls: int = 0
    critical: int = 0
    tokens: int = 0
    usd: Decimal = Decimal(0)
    bytes: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


class Bench:
    def __init__(self, pp: SimpleNamespace, workload: str, seed: int):
        self.pp = pp
        self.workload = workload
        self.log = CallLog(*LATENCY[workload])
        install_backend_wrapper(pp.cli, pp.orchestrator, pp.gateway.ModelGateway, self.log)
        self.ceilings = pp.orchestrator.call_ceilings(pp.core.PipelineConfig(), runs=2)
        self.out_seq = 0
        self.first_counts: dict[tuple, tuple] = {}
        self.kind = "well" if workload == "well_latency" else "stall"
        self.pool = scenarios.write_pool(self.kind, seed, WORK / "inputs")

    # -- solve ------------------------------------------------------------

    def solve(self, sc: scenarios.Scenario, out: Path, scope=contextlib.nullcontext) -> Op:
        """One ``proofpipe solve``; everything after the call is checking."""
        cli = self.pp.cli
        argv = ["solve", str(sc.problem), "--script", str(sc.script), "--out", str(out)]
        op = Op(sc.index)
        printed = io.StringIO()
        self.log.reset()
        start = time.perf_counter()
        with scope(), contextlib.redirect_stdout(printed):
            code = cli.main(argv)
        op.seconds = time.perf_counter() - start

        want = 0 if self.kind == "well" else 1
        op.check(code == want, f"exit code {code}, expected {want}")
        if sc.expect_text:
            op.check(sc.expect_text in (out / "solution.txt").read_text(encoding="utf-8"),
                     "breakthrough text missing from solution.txt")
        ledger = json.loads((out / "ledger.json").read_text(encoding="utf-8"))
        entries = ledger["entries"]
        by_role: dict[str, int] = {}
        for e in entries:
            by_role[e["role"]] = by_role.get(e["role"], 0) + 1
        for role, count in by_role.items():
            op.check(count <= self.ceilings.get(role, 0), f"{role} calls {count} exceed ceiling")
        op.calls = len(entries)
        op.tokens = sum(e["input_tokens"] + e["output_tokens"] + e["thinking_tokens"] for e in entries)
        op.usd = Decimal(ledger["totals"]["grand"])
        used = re.search(r"^tokens used: (\d+) of", printed.getvalue(), re.M)
        op.check(used is not None and int(used.group(1)) == op.tokens,
                 "ledger.json tokens differ from the 'tokens used' line")
        op.check(self.cost_total(out / "trace.jsonl") == op.usd,
                 "ledger.json grand total differs from 'proofpipe cost trace.jsonl'")
        op.check(len(self.log.calls) == op.calls, "backend saw a different number of calls than the ledger")
        op.critical = self.log.critical_path()
        op.bytes = tree_bytes(out)
        return op

    def cost_total(self, trace_path: Path) -> Decimal | None:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = self.pp.cli.main(["cost", str(trace_path)])
        found = re.search(r"^total: \$(\S+)$", printed.getvalue(), re.M)
        return Decimal(found.group(1)) if code == 0 and found else None

    # -- read-back ------------------------------------------------------------

    @staticmethod
    def expectations(sc: scenarios.Scenario, out: Path) -> dict:
        """What a read-back pass over the solve stored in ``out`` must reproduce."""
        events = [json.loads(line) for line in (out / "trace.jsonl").read_text(encoding="utf-8").splitlines()]
        ckpt = [e for e in events if e["kind"] == "checkpoint" and not e["payload"]["checkpoint_id"].endswith(".final")][-1]
        run_id = ckpt["payload"]["snapshot"]["state"]["run_id"]
        result = [e for e in events if e["kind"] == "result" and e["run_id"] == run_id][-1]
        ledger = json.loads((out / "ledger.json").read_text(encoding="utf-8"))
        # The resumed run is the last one, so its gateway ends holding every
        # entry recorded before the judge.
        entries = [e for e in ledger["entries"] if e["run_id"] != "aggregate"]
        return {"scenario": sc.index, "out": out, "script": sc.script, "bytes": tree_bytes(out),
                "checkpoint": ckpt["payload"]["checkpoint_id"], "text": result["payload"]["proof_text"],
                "entries": entries, "usd": Decimal(ledger["totals"]["grand"])}

    def readback(self, stored: dict, scope=contextlib.nullcontext) -> Op:
        """``proofpipe cost``, ``replay`` and ``resume`` over one stored solve."""
        pp = self.pp
        trace_path = stored["out"] / "trace.jsonl"
        op = Op(stored["scenario"])
        self.log.reset()
        start = time.perf_counter()
        with scope():
            total = self.cost_total(trace_path)
            original = pp.trace.RunTrace.load(trace_path)
            registry = pp.prompts.PromptRegistry.load()
            divergence = pp.orchestrator.replay(original, registry)
            checkpoint = [e.payload["checkpoint_id"] for e in original.of_kind("checkpoint")
                          if not e.payload["checkpoint_id"].endswith(".final")][-1]
            config = pp.core.PipelineConfig.from_dict(original.header["config"])
            backend = pp.cli.build_backend({"kind": "scripted", "script": str(stored["script"])})
            gateway = pp.gateway.ModelGateway(backend, token_budget=config.token_budget,
                                              retry_attempts=config.retry_attempts,
                                              strict_budget=config.strict_budget)
            resumed = pp.orchestrator.Orchestrator(gateway, registry, config).resume(original, checkpoint)
        op.seconds = time.perf_counter() - start

        op.check(total == stored["usd"], "'proofpipe cost' total differs from the stored ledger.json")
        op.check(divergence is None, f"replay diverged: {divergence}")
        op.check(checkpoint == stored["checkpoint"], f"resumed from {checkpoint}, expected {stored['checkpoint']}")
        op.check(resumed.solution is not None and resumed.solution.proof_text == stored["text"],
                 "resumed solution differs from the recorded one")
        op.check([e.to_dict() for e in gateway.ledger.entries] == stored["entries"],
                 "resumed ledger differs from the recorded one")
        prices = pp.gateway.DEFAULT_PRICES
        op.calls = len(self.log.calls)
        op.tokens = sum(usage.total for _, _, usage, _ in self.log.calls)
        op.usd = sum((pp.gateway.cost_of(usage, prices.get(bid)) for _, _, usage, bid in self.log.calls), Decimal(0))
        op.critical = self.log.critical_path()
        op.bytes = stored["bytes"]
        return op

    # -- the loop ---------------------------------------------------------------

    def run_op(self, index: int, scope=contextlib.nullcontext, keep: bool = False,
               stored: dict | None = None) -> tuple[Op, Path | None]:
        """One op with failures caught and counted.

        A solve, or a read-back pass when ``stored`` is given. Returns the op
        and, when ``keep``, the artifact directory a solve left.
        """
        gc.collect()
        out = None
        try:
            if stored is not None:
                op = self.readback(stored, scope)
            else:
                self.out_seq += 1
                out = WORK / "out" / f"{self.out_seq:05d}"
                op = self.solve(self.pool[index], out, scope)
        except Exception as exc:  # an op that raises is a failed op, and the run goes on
            op = Op(index, problems=[f"{type(exc).__name__}: {exc}"])
        counts = (op.calls, op.tokens, op.usd)
        if not op.problems:
            first = self.first_counts.setdefault((stored is not None, index), counts)
            op.check(first == counts, f"calls/tokens/usd {counts} differ from this scenario's first op {first}")
        for problem in op.problems:
            print(f"op failed (scenario {index}): {problem}", file=sys.stderr)
        if out is not None and not keep:
            shutil.rmtree(out, ignore_errors=True)
        return op, out


def percentile_tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    With fewer than 21 samples that would fall below the median, so the
    tail is then the upper median.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 11, n // 2)
    return ordered[k], 100.0 * (k + 1) / n


def pool_mean(ops: list[Op], attr: str) -> float:
    """Mean over scenarios of each scenario's mean, so every scenario weighs the same."""
    by_scenario: dict[int, list] = {}
    for op in ops:
        by_scenario.setdefault(op.scenario, []).append(float(getattr(op, attr)))
    return statistics.mean(statistics.mean(v) for v in by_scenario.values())


def end_to_end(ops: list[Op], setup_s: float) -> dict[str, tuple[float, str]]:
    good = [op for op in ops if not op.problems] or [Op(-1)]
    times = [op.seconds for op in good]
    tail, _ = percentile_tail(times)
    return {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail, "s"),
        "critical_path_calls": (pool_mean(good, "critical"), "count"),
        "calls_per_op": (pool_mean(good, "calls"), "count"),
        "tokens_per_op": (pool_mean(good, "tokens"), "tokens"),
        "usd_per_op": (pool_mean(good, "usd"), "USD"),
        "artifact_bytes_per_op": (pool_mean(good, "bytes"), "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# -- per-layer metrics from spans ---------------------------------------------------


def covered(intervals: list[tuple[float, float]]) -> float:
    """Seconds covered by the union of the intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def aggregate(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, self and inclusive seconds, summed attributes.

    Self time is a span's duration less the time covered by its children,
    each counted up to its ``outer_end`` so the tracer's own attribute work
    lands in no span. Children that ran at once on pool threads are counted
    once. ``outer_error`` counts raised spans whose parent has another name,
    so a wrapper and the backend it wraps count one failed attempt once.
    """
    children: list[list] = [[] for _ in spans]
    for _, start, _, parent, _, outer_end in spans:
        if parent >= 0:
            children[parent].append((start, outer_end))
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, attrs, _) in enumerate(spans):
        a = out.setdefault(name, {"calls": 0, "self": 0.0, "dur": 0.0, "outer_error": 0})
        a["calls"] += 1
        a["dur"] += end - start
        a["self"] += end - start - covered(children[i])
        if attrs:
            for key, value in attrs.items():
                a[key] = a.get(key, 0) + value
            if attrs.get("error") and (parent < 0 or spans[parent][0] != name):
                a["outer_error"] += 1
    return out


def _get(agg: dict, name: str, key: str) -> float:
    return agg.get(name, {}).get(key, 0)


def _self_of(prefix: str, *reported: str):
    """Self time of a layer's spans, less the ones reported on their own."""
    return lambda agg: sum(a["self"] for n, a in agg.items() if n.startswith(prefix) and n not in reported)


def _c(name, key):
    return lambda agg: _get(agg, name, key)


# (metric, unit, better, source, how, value from one group's aggregate)
# source: "ops" are the traced ops; "readback" are read-back passes, which
# run after the loop over each scenario's last traced artifacts. how: median or mean over
# groups; "ratio" sums (numerator, denominator) over groups.
LAYER_METRICS = [
    ("trace.append.calls", "count", "lower", "ops", "mean", _c("trace.append", "calls")),
    ("trace.append.self_s", "s", "lower", "ops", "median", _c("trace.append", "self")),
    ("trace.append.bytes", "bytes", "lower", "ops", "mean", _c("trace.append", "bytes")),
    ("trace.checkpoint.calls", "count", "lower", "ops", "mean", _c("trace.checkpoint", "calls")),
    ("trace.checkpoint.self_s", "s", "lower", "ops", "median", _c("trace.checkpoint", "self")),
    ("trace.checkpoint.bytes", "bytes", "lower", "ops", "mean", _c("trace.checkpoint", "bytes")),
    ("trace.load.self_s", "s", "lower", "readback", "median", _c("trace.load", "self")),
    ("trace.first_divergence.self_s", "s", "lower", "readback", "median", _c("trace.first_divergence", "self")),
    ("core.digest.calls", "count", "lower", "ops", "mean", _c("core.digest", "calls")),
    ("core.digest.self_s", "s", "lower", "ops", "median", _c("core.digest", "self")),
    ("core.digest.bytes", "bytes", "lower", "ops", "mean", _c("core.digest", "bytes")),
    ("core.rank.self_s", "s", "lower", "ops", "median", _c("core.rank", "self")),
    ("prompts.render.calls", "count", "lower", "ops", "mean", _c("prompts.render", "calls")),
    ("prompts.render.self_s", "s", "lower", "ops", "median", _c("prompts.render", "self")),
    ("prompts.render.bytes", "bytes", "lower", "ops", "mean", _c("prompts.render", "bytes")),
    ("gateway.complete.calls", "count", "lower", "ops", "mean", _c("gateway.complete", "calls")),
    ("gateway.complete.self_s", "s", "lower", "ops", "median", _c("gateway.complete", "self")),
    ("gateway.ledger_total.calls", "count", "lower", "ops", "mean", _c("gateway.ledger_total", "calls")),
    ("gateway.ledger_total.self_s", "s", "lower", "ops", "median", _c("gateway.ledger_total", "self")),
    ("gateway.backend.s", "s", "lower", "ops", "median", _c("gateway.backend", "self")),
    ("gateway.backend.failed", "count", "lower", "ops", "mean", _c("gateway.backend", "outer_error")),
    ("dialectic.solve.self_s", "s", "lower", "ops", "median",
     _self_of("dialectic.", "dialectic.parse_grade", "dialectic.context_render")),
    ("dialectic.branches", "count", "lower", "ops", "mean", _c("dialectic.solve", "n")),
    ("dialectic.parse_grade.calls", "count", "lower", "ops", "mean", _c("dialectic.parse_grade", "calls")),
    ("dialectic.parse_grade.self_s", "s", "lower", "ops", "median", _c("dialectic.parse_grade", "self")),
    ("dialectic.context_render.self_s", "s", "lower", "ops", "median", _c("dialectic.context_render", "self")),
    ("dialectic.verify.calls", "count", "lower", "ops", "mean", _c("dialectic.verify", "calls")),
    ("dialectic.verify.pass_ratio", "ratio", "higher", "ops", "ratio",
     lambda agg: (_get(agg, "dialectic.verify", "passed"), _get(agg, "dialectic.verify", "calls"))),
    ("conjecture.extract.calls", "count", "lower", "ops", "mean", _c("conjecture.extract", "calls")),
    ("conjecture.extract.self_s", "s", "lower", "ops", "median", _c("conjecture.extract", "self")),
    ("conjecture.extract.fail_ratio", "ratio", "lower", "ops", "ratio",
     lambda agg: (_get(agg, "conjecture.extract", "error"), _get(agg, "conjecture.extract", "calls"))),
    ("conjecture.parse.calls", "count", "lower", "ops", "mean", _c("conjecture.parse", "calls")),
    ("conjecture.parse.self_s", "s", "lower", "ops", "median", _c("conjecture.parse", "self")),
    ("conjecture.verify.self_s", "s", "lower", "ops", "median", _c("conjecture.verify", "self")),
    ("conjecture.pairs.proven_ratio", "ratio", "higher", "ops", "ratio",
     lambda agg: (_get(agg, "conjecture.verify", "proven"), _get(agg, "conjecture.verify", "pairs"))),
    ("orchestrator.self_s", "s", "lower", "ops", "median", _self_of("orchestrator.")),
    ("orchestrator.resume.s", "s", "lower", "readback", "median", _c("orchestrator.resume", "dur")),
    ("orchestrator.replay.s", "s", "lower", "readback", "median", _c("orchestrator.replay", "dur")),
    ("cli.self_s", "s", "lower", "ops", "median", _self_of("cli.")),
]


def layer_metrics(op_groups: list[list], readback_groups: list[list]) -> dict[str, tuple[float, str]]:
    aggs = {"ops": [aggregate(g) for g in op_groups], "readback": [aggregate(g) for g in readback_groups]}
    out = {}
    for name, unit, _, source, how, fn in LAYER_METRICS:
        values = [fn(a) for a in aggs[source]]
        if not values:  # every read-back pass failed; the failures are counted
            out[name] = (0.0, unit)
        elif how == "ratio":
            num, den = sum(v[0] for v in values), sum(v[1] for v in values)
            out[name] = (num / den if den else 0.0, unit)
        elif how == "median":
            out[name] = (statistics.median(values), unit)
        else:
            out[name] = (statistics.mean(values), unit)
    return out


# -- entry point -------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    pp = load_program()
    time_setup()  # compiles bytecode once, untimed
    bench = Bench(pp, workload, seed)
    tracer = Tracer()
    targets = span_targets(tracer, pp)

    @contextlib.contextmanager
    def tracing():
        tracer.install(targets)
        try:
            yield
        finally:
            tracer.uninstall()

    plain: list[Op] = []
    spanned: list[Op] = []
    op_groups: list[list] = []
    kept: dict[int, Path] = {}  # scenario -> artifacts of its last traced solve
    # Set-up samples are spread over the run, between ops, so they see the
    # same machine as the ops do rather than one burst of it.
    setup_times: list[float] = []
    start = time.perf_counter()
    cycle = 0
    # Whole cycles keep every scenario equally weighted; stop at the boundary nearest the deadline.
    while cycle == 0 or time.perf_counter() + (time.perf_counter() - start) / cycle / 2 < start + seconds:
        # Traced runs alternate which side goes first, so neither always runs on a warmer heap.
        sides = ((False, True) if cycle % 2 == 0 else (True, False)) if traced else (False,)
        for index in range(len(bench.pool)):
            if len(setup_times) < SETUP_REPEATS * (time.perf_counter() - start) / seconds:
                setup_times.append(time_setup())
            for with_spans in sides:
                if not with_spans:
                    plain.append(bench.run_op(index)[0])
                    continue
                op, out = bench.run_op(index, tracing, keep=True)
                spanned.append(op)
                op_groups.append(tracer.take())
                if out is None:
                    continue
                stale = out if op.problems else kept.get(index)
                if not op.problems:
                    kept[index] = out
                if stale is not None:
                    shutil.rmtree(stale, ignore_errors=True)
        cycle += 1

    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(time_setup())
    e2e = end_to_end(plain, statistics.median(setup_times))
    _, tail_pct = percentile_tail([op.seconds for op in plain])
    lines = [f"workload {workload} seed {seed}: {cycle} cycles of {len(bench.pool)} scenarios",
             f"op_s_tail is p{tail_pct:.1f} of {len(plain)} untraced ops"]
    metrics = e2e
    passes: list[Op] = []
    if traced:
        # One read-back pass over each scenario's last traced artifacts, without latency.
        bench.log.a = bench.log.b = 0.0
        readback_groups = []
        for index, out in sorted(kept.items()):
            stored = bench.expectations(bench.pool[index], out)
            passes.append(bench.run_op(index, tracing, stored=stored)[0])
            readback_groups.append(tracer.take())
        metrics = layer_metrics(op_groups, readback_groups)
        untraced_p50 = e2e["op_s_p50"][0]
        traced_p50 = statistics.median(op.seconds for op in spanned)
        metrics["tracing.overhead_s"] = (traced_p50 - untraced_p50, "s")
        metrics["tracing.overhead_ratio"] = ((traced_p50 - untraced_p50) / untraced_p50, "ratio")
        lines.append("end-to-end, from this run's untraced ops (peak_rss_mb includes the spans):")
        lines += [f"  {name} {value:.9g} {unit}" for name, (value, unit) in e2e.items()]
        lines.append("per-layer, from the traced ops:")
        Tracer.dump(op_groups + readback_groups, WORK / f"spans-{workload}.jsonl")
    lines += [f"  {name} {value:.9g} {unit}" for name, (value, unit) in metrics.items()]
    ops = plain + spanned + passes
    failed = sum(1 for op in ops if op.problems)
    lines.append(f"failed {failed} of {len(ops)} ops (fail_ratio {failed / len(ops):.4g})")
    print("\n".join(lines))
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed}
    result["metrics"] = {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(LATENCY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        for sub in ("inputs", "out"):
            shutil.rmtree(WORK / sub, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
