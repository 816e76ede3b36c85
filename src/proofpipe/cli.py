"""Operator command line: solve, metrics, cost, replay.

Exit codes are a stable contract:
  0  verified solution
  1  best-effort solution (ran out of iterations, not tokens)
  2  usage / input error
  3  budget exhausted (best partial artifacts still written)
  4  internal error: a bug in proofpipe (the traceback goes to stderr)
"""
from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import traceback
from dataclasses import fields
from decimal import Decimal, InvalidOperation
from enum import IntEnum
from pathlib import Path

from .core import PipelineConfig, Problem
from .gateway import (
    DEFAULT_PRICES,
    HttpBackend,
    ModelGateway,
    PriceTable,
    ScriptedBackend,
    estimate_max_budget,
)
from .metrics import (
    MetricsInputError,
    compute_metrics,
    confusion_csv,
    load_records,
    render_report,
)
from .orchestrator import (
    STATUS_BEST_EFFORT,
    STATUS_BUDGET_EXHAUSTED,
    STATUS_VERIFIED,
    Orchestrator,
    ReplayError,
    ledger_from_trace,
    replay,
)
from .prompts import PromptRegistry
from .trace import RunTrace


class ExitCode(IntEnum):
    VERIFIED = 0
    BEST_EFFORT = 1
    USAGE = 2
    BUDGET_EXHAUSTED = 3
    INTERNAL = 4


_STATUS_TO_EXIT = {
    STATUS_VERIFIED: ExitCode.VERIFIED,
    STATUS_BEST_EFFORT: ExitCode.BEST_EFFORT,
    STATUS_BUDGET_EXHAUSTED: ExitCode.BUDGET_EXHAUSTED,
}

# Every PipelineConfig field but the price table, which [prices] sets.
PIPELINE_KEYS = frozenset(f.name for f in fields(PipelineConfig)) - {"price_table"}
# The pipeline settings `solve` also takes as integer flags.
SOLVE_FLAGS = (
    "initial_iterations",
    "conjecture_iterations",
    "solver_width",
    "extraction_budget",
    "verify_repeats",
    "parallel_runs",
    "token_budget",
    "max_output_tokens",
)


def load_problem(path: str | Path) -> Problem:
    """Problem files are JSON or a small key/block text format:

        id: demo-1
        statement:
          ...indented lines...
        materials:
          ...optional indented lines...
    """
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        json.dumps(data, ensure_ascii=False).encode("utf-8")  # refuses a lone surrogate, which UTF-8 cannot encode
        return Problem.from_dict(data)
    fields: dict[str, list[str]] = {}
    current: str | None = None
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped and current is None:
            continue
        if not line.startswith((" ", "\t")) and ":" in line:
            key, _, rest = line.partition(":")
            current = key.strip().lower()
            fields[current] = [rest.strip()] if rest.strip() else []
        elif current is not None:
            fields[current].append(stripped)
        else:
            raise ValueError(f"unparseable problem line: {line!r}")
    if "id" not in fields or "statement" not in fields:
        raise ValueError("problem file needs 'id' and 'statement' fields")
    materials = "\n".join(fields.get("materials", [])) or None
    return Problem(
        id="\n".join(fields["id"]),
        statement="\n".join(fields["statement"]),
        additional_materials=materials,
    )


def load_config(path: str | Path | None, args: argparse.Namespace) -> tuple[PipelineConfig, dict]:
    """Merge: defaults < config file < command-line flags."""
    values: dict = {}
    backend_cfg: dict = {"kind": "scripted"}
    if path:
        parser = configparser.ConfigParser()
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        if parser.has_section("pipeline"):
            for key, raw in parser.items("pipeline"):
                if key not in PIPELINE_KEYS:
                    raise ValueError(f"unknown [pipeline] key {key!r} in {path}")
                try:
                    values[key] = parser.getboolean("pipeline", key) if key == "strict_budget" else int(raw)
                except ValueError:
                    want = "a boolean" if key == "strict_budget" else "an integer"
                    raise ValueError(f"[pipeline] {key} = {raw!r} is not {want}") from None
        if parser.has_section("backend"):
            backend_cfg.update(parser.items("backend"))
        if parser.has_section("prices"):
            price_table = {}
            for backend_id, pair in parser.items("prices"):
                try:
                    rate_in, rate_out = (p.strip() for p in pair.split(","))
                    Decimal(rate_in), Decimal(rate_out)
                except (ValueError, InvalidOperation):
                    raise ValueError(
                        f"[prices] {backend_id} = {pair!r} is not two rates (input, output USD per million tokens)"
                    ) from None
                price_table[backend_id] = {
                    "input_usd_per_million": rate_in,
                    "output_usd_per_million": rate_out,
                }
            values["price_table"] = price_table
    for flag in SOLVE_FLAGS:
        value = getattr(args, flag, None)
        if value is not None:
            values[flag] = value
    if getattr(args, "script", None):
        backend_cfg["kind"] = "scripted"
        backend_cfg["script"] = args.script
    return PipelineConfig(**values), backend_cfg


def build_backend(backend_cfg: dict):
    kind = backend_cfg.get("kind", "scripted")
    if kind == "scripted":
        script = backend_cfg.get("script")
        if not script:
            raise ValueError("scripted backend requires a script file (--script or [backend] script=)")
        return ScriptedBackend.from_file(script)
    if kind == "http":
        api_key_env = backend_cfg.get("api_key_env", "PROOFPIPE_API_KEY")
        api_key = os.environ.get(api_key_env, "")
        if not api_key:
            raise ValueError(f"environment variable {api_key_env} is not set")
        return HttpBackend(
            endpoint=backend_cfg["endpoint"],
            model=backend_cfg["model"],
            api_key=api_key,
            backend_id=backend_cfg.get("backend_id", "http"),
        )
    raise ValueError(f"unknown backend kind {kind!r}")


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        problem = load_problem(args.problem)
        config, backend_cfg = load_config(args.config, args)
        gateway = ModelGateway(
            build_backend(backend_cfg),
            token_budget=config.token_budget,
            price_table=PriceTable.from_config(config.price_table) if config.price_table else DEFAULT_PRICES,
            retry_attempts=config.retry_attempts,
            strict_budget=config.strict_budget,
        )
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = out_dir / "trace.jsonl"
        if trace_path.exists() and trace_path.stat().st_size:
            raise ValueError(f"{trace_path} already holds a run; give --out an unused directory")
    except (ValueError, KeyError, OSError, json.JSONDecodeError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ExitCode.USAGE

    registry = PromptRegistry.load()
    orch = Orchestrator(gateway, registry, config)
    trace = RunTrace(path=trace_path)
    try:
        result = orch.run_parallel(problem, trace=trace, n=config.parallel_runs)
    finally:
        trace.close()

    solution_path = out_dir / "solution.txt"
    if result.solution is not None:
        solution_path.write_text(result.solution.proof_text + "\n", encoding="utf-8")
    else:
        solution_path.write_text("(no solution produced)\n", encoding="utf-8")
    (out_dir / "ledger.json").write_text(json.dumps(gateway.ledger.to_dict(), separators=(",", ":")), encoding="utf-8")

    score = result.solution.grade.score if result.solution else None
    print(f"status: {result.status}")
    print(f"score: {score}")
    print(f"tokens used: {gateway.tokens_consumed} of {config.token_budget}")
    print(f"cost: ${gateway.ledger.grand_total()}")
    print(f"artifacts: {out_dir}")
    return _STATUS_TO_EXIT[result.status]


def cmd_metrics(args: argparse.Namespace) -> int:
    try:
        records = load_records(args.records)
        report = compute_metrics(records)
    except (MetricsInputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ExitCode.USAGE
    text = render_report(report)
    print(text)
    if args.out:
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "report.txt").write_text(text + "\n", encoding="utf-8")
            (out_dir / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
            (out_dir / "confusion.csv").write_text(confusion_csv(report), encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return ExitCode.USAGE
    return ExitCode.VERIFIED


def cmd_cost(args: argparse.Namespace) -> int:
    if args.estimate:
        try:
            t, c, r, p = (int(v) for v in args.estimate[:4])
            rate = Decimal(args.estimate[4])
            print(f"${estimate_max_budget(t, c, r, p, rate)}")
            return ExitCode.VERIFIED
        except (ValueError, InvalidOperation) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return ExitCode.USAGE
    if not args.trace:
        print("error: provide a trace.jsonl or --estimate", file=sys.stderr)
        return ExitCode.USAGE
    try:
        trace = RunTrace.load(args.trace)
        if trace.header is None:
            raise ValueError("no run_start event")
        if not isinstance(trace.header["config"], dict):
            raise ValueError(f"the header's config is not a table: {trace.header['config']!r}")
        raw_prices = trace.header["config"]["price_table"]
        ledger = ledger_from_trace(trace, PriceTable.from_config(raw_prices) if raw_prices else DEFAULT_PRICES)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {args.trace} is not a readable trace.jsonl: {exc}", file=sys.stderr)
        return ExitCode.USAGE

    print("cost by role (USD):")
    for role, total in sorted(ledger.total_by_role().items()):
        print(f"  {role:<10} {total}")
    by_run = ledger.total_by_run()
    if len(by_run) > 1:
        print("cost by run (USD):")
        for run, total in sorted(by_run.items()):
            print(f"  {run:<10} {total}")
    print(f"total: ${ledger.grand_total()}")
    if args.csv:
        try:
            Path(args.csv).write_text(ledger.to_csv(), encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return ExitCode.USAGE
    return ExitCode.VERIFIED


def cmd_replay(args: argparse.Namespace) -> int:
    try:
        original = RunTrace.load(args.trace)
        divergence = replay(original)
    except (ReplayError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ExitCode.USAGE
    if divergence is None:
        print("identical")
        return ExitCode.VERIFIED
    print(f"divergence at event {divergence['index']}:")
    print(json.dumps(divergence, indent=1))
    return ExitCode.BEST_EFFORT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="proofpipe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="Run the full pipeline on a problem file.")
    solve.add_argument("problem", help="Problem file (JSON or key/block text).")
    solve.add_argument("--config", help="INI config file ([pipeline], [backend], [prices]).")
    solve.add_argument("--out", default="out", help="Artifact directory.")
    solve.add_argument("--script", help="Scripted-backend script file (JSON).")
    for flag in SOLVE_FLAGS:
        solve.add_argument(f"--{flag.replace('_', '-')}", type=int, dest=flag)
    solve.set_defaults(func=cmd_solve)

    metrics = sub.add_parser("metrics", help="Evaluate grading records (CSV or JSONL).")
    metrics.add_argument("records")
    metrics.add_argument("--out", help="Directory for report.txt/report.json/confusion.csv.")
    metrics.set_defaults(func=cmd_metrics)

    cost = sub.add_parser("cost", help="Summarize the cost of a trace; or estimate a budget.")
    cost.add_argument("trace", nargs="?", help="trace.jsonl produced by solve")
    cost.add_argument("--csv", help="Also write the ledger as CSV to this path.")
    cost.add_argument(
        "--estimate",
        nargs=5,
        metavar=("TOKENS_PER_CALL", "CALLS_PER_ROUND", "ROUNDS", "PARALLEL_RUNS", "USD_PER_MILLION"),
        help="Worst-case budget for a pipeline shape.",
    )
    cost.set_defaults(func=cmd_cost)

    rep = sub.add_parser("replay", help="Re-execute a scripted trace and diff it.")
    rep.add_argument("trace", help="trace.jsonl produced by solve")
    rep.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except Exception:  # noqa: BLE001 - anything a subcommand lets escape is a bug
        traceback.print_exc()
        return ExitCode.INTERNAL


if __name__ == "__main__":
    sys.exit(main())
