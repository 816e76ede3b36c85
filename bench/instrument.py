"""Instruments the benchmark installs around the program, from outside it.

``CallLog`` and ``TimedBackend`` model provider latency and record each
model call's interval; ``Tracer`` wraps public functions of every layer in
spans kept in memory. Nothing here edits the program's files: both work by
rebinding names in the loaded ``proofpipe`` modules.
"""
from __future__ import annotations

import concurrent.futures
import functools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class CallLog:
    """Latency model and the calls made since the last ``reset``.

    Each call sleeps ``a + b * (output + thinking tokens)`` seconds after the
    scripted reply is ready; with both constants zero it does not sleep.
    """

    a: float = 0.0
    b: float = 0.0
    calls: list = field(default_factory=list)  # (start, end, usage, backend_id)

    def reset(self) -> None:
        self.calls = []

    def critical_path(self) -> int:
        """Length of the longest chain of calls that do not overlap in time.

        Greedy by earliest end is optimal for picking disjoint intervals, and
        a set of disjoint intervals ordered by start is such a chain.
        """
        count, free_at = 0, float("-inf")
        for start, end, _, _ in sorted(self.calls, key=lambda c: c[1]):
            if start >= free_at:
                count += 1
                free_at = end
        return count


class TimedBackend:
    """Wraps a backend: injects the modelled latency, records intervals.

    It forwards what the orchestrator and replay look for on a scripted
    backend (``backend_id``, ``snapshot``, ``restore``, ``to_dict``), so the
    trace header still says ``scripted`` and the trace still replays.
    """

    def __init__(self, inner, log: CallLog):
        self.inner = inner
        self.log = log

    @property
    def backend_id(self) -> str:
        return self.inner.backend_id

    def snapshot(self):
        return self.inner.snapshot()

    def restore(self, cursors) -> None:
        self.inner.restore(cursors)

    def to_dict(self) -> dict:
        return self.inner.to_dict()

    def complete(self, req):
        start = time.perf_counter()
        resp = self.inner.complete(req)
        log = self.log
        if log.a or log.b:
            time.sleep(log.a + log.b * (resp.usage.output_tokens + resp.usage.thinking_tokens))
        log.calls.append((start, time.perf_counter(), resp.usage, resp.backend_id))
        return resp


def install_backend_wrapper(cli_mod, orchestrator_mod, gateway_cls, log: CallLog) -> None:
    """Wrap every backend the program builds in a ``TimedBackend``.

    ``solve`` builds its backend through ``cli.build_backend``; ``replay``
    builds its own scripted backend and hands it to ``ModelGateway``, which
    the orchestrator module names only there.
    """
    build = cli_mod.build_backend

    @functools.wraps(build)
    def build_backend(backend_cfg):
        return TimedBackend(build(backend_cfg), log)

    def replay_gateway(backend, **kwargs):
        return gateway_cls(TimedBackend(backend, log), **kwargs)

    cli_mod.build_backend = build_backend
    orchestrator_mod.ModelGateway = replay_gateway


# -- spans -------------------------------------------------------------------


class Tracer:
    """Span recorder for public functions of the program's layers.

    A span is ``[name, start, end, parent, attrs, outer_end]``. ``parent``
    is the innermost span open on the same thread when the span started; a
    pool worker starts with the span that submitted its task (see ``pool``).
    The span's own time stops when the wrapped function returns; computing
    its attributes comes after, up to ``outer_end``, so that work shows in
    no layer's time. Spans stay in memory until ``take``, which turns parents
    into indices (-1 for a root). ``install`` rebinds each target at every
    binding in the ``proofpipe`` modules (names imported with
    ``from x import y`` are separate bindings) and ``uninstall`` puts the
    originals back, so untraced ops run the program untouched.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        spans = self.spans
        clock = time.perf_counter
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            rec = [name, clock(), 0.0, stack[-1] if stack else None, None, 0.0]
            stack.append(rec)
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = rec[5] = clock()
                stack.pop()
                rec[4] = {**(rec[4] or {}), "error": 1}
                raise
            rec[2] = clock()
            stack.pop()
            if attrs is not None:
                rec[4] = {**(rec[4] or {}), **attrs(args, kwargs, result)}
            rec[5] = clock()
            return result

        return wrapper

    def counter(self, key: str, fn, measure):
        """Adds ``measure(result)`` to ``attrs[key]`` of the enclosing span."""
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            stack = stack_of()
            if stack:
                rec = stack[-1]
                attrs = rec[4] = rec[4] or {}
                attrs[key] = attrs.get(key, 0) + measure(result)
            return result

        return wrapper

    def pool(self, executor_cls):
        """An executor class whose tasks start under the submitter's open span."""
        local, stack_of = self._local, self._stack

        class SpanPool(executor_cls):
            def submit(self, fn, /, *args, **kwargs):
                opened = stack_of()[-1:]

                def task():
                    local.stack = list(opened)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        local.stack = []

                return super().submit(task)

        return SpanPool

    def install(self, targets) -> None:
        modules = [m for n, m in sys.modules.items() if n == "proofpipe" or n.startswith("proofpipe.")]
        for owner, attr, make in targets:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(make(raw.__func__))
                else:
                    new = make(raw)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            original = getattr(owner, attr)
            new = make(original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, new)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def take(self) -> list[list]:
        """The spans recorded since the last ``take``, parents as indices."""
        spans, self.spans[:] = list(self.spans), []
        index = {id(rec): i for i, rec in enumerate(spans)}
        return [[name, start, end, -1 if parent is None else index[id(parent)], attrs, outer_end]
                for name, start, end, parent, attrs, outer_end in spans]

    @staticmethod
    def dump(groups: list[list[list]], path: Path) -> None:
        """Write spans as JSON lines; ``op`` numbers the group (request)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for op, spans in enumerate(groups):
                for name, start, end, parent, attrs, outer_end in spans:
                    fh.write(json.dumps({"op": op, "name": name, "start": start, "end": end,
                                         "outer_end": outer_end, "parent": parent, "attrs": attrs}) + "\n")


def span_targets(tracer: Tracer, pp) -> list[tuple]:
    """(owner, attribute, wrapper factory) for every traced function.

    Covers the public functions on the solve and read-back paths of every
    layer except ``metrics``. Every span's self time feeds a per-layer
    metric (``run.LAYER_METRICS``). Small helpers no metric reports on
    (``best``, ``PromptRegistry.load``/``version``, ``to_dict`` and
    friends) are left unwrapped, so their time stays in the caller's. ``ThreadPoolExecutor`` is rebound too, so spans
    opened in pool workers get the submitting span as parent.
    """
    core, trace, prompts, gateway = pp.core, pp.trace, pp.prompts, pp.gateway
    dialectic, conjecture, orchestrator, cli = pp.dialectic, pp.conjecture, pp.orchestrator, pp.cli
    trace_sizes: dict = {}

    def span(name, attrs=None):
        return lambda fn: tracer.wrap(name, fn, attrs)

    def text_bytes(args, kwargs, result):
        return {"bytes": len(result) if result.isascii() else len(result.encode("utf-8"))}

    def appended_bytes(args, kwargs, result):
        # Traces only ever append, so growth since the last append is this line.
        path = args[0].path
        if path is None:
            return {"bytes": 0}
        size = path.stat().st_size
        grown = size - trace_sizes.get(path, 0)
        trace_sizes[path] = size
        return {"bytes": grown}

    def checkpoint_bytes(args, kwargs, result):
        path = args[0].path
        if path is None:
            return {"bytes": 0}
        return {"bytes": (path.parent / "checkpoints" / f"{args[1]}.json").stat().st_size}

    def branch_count(args, kwargs, result):
        return {"n": len(result)}

    def verify_result(args, kwargs, result):
        return {"passed": int(result)}

    def pair_outcome(args, kwargs, result):
        return {"pairs": len(args[1]), "proven": len(result.proven)}

    return [
        (concurrent.futures, "ThreadPoolExecutor", tracer.pool),
        (core, "digest", span("core.digest")),
        (core, "canonical_json", lambda fn: tracer.counter("bytes", fn, len)),
        (core, "rank", span("core.rank")),
        (prompts.PromptRegistry, "render", span("prompts.render", text_bytes)),
        (trace.RunTrace, "append", span("trace.append", appended_bytes)),
        (trace.RunTrace, "checkpoint", span("trace.checkpoint", checkpoint_bytes)),
        (trace.RunTrace, "load", span("trace.load")),
        (trace, "first_divergence", span("trace.first_divergence")),
        (gateway.ModelGateway, "complete", span("gateway.complete")),
        (gateway.CostLedger, "grand_total", span("gateway.ledger_total")),
        (gateway.ScriptedBackend, "complete", span("gateway.backend")),
        (TimedBackend, "complete", span("gateway.backend")),
        (dialectic.DialecticEngine, "dialectic_solve", span("dialectic.solve", branch_count)),
        (dialectic.DialecticEngine, "lazy_phrase_check", span("dialectic.censor")),
        (dialectic.DialecticEngine, "grade", span("dialectic.grade")),
        (dialectic.DialecticEngine, "verified_success", span("dialectic.verify", verify_result)),
        (dialectic.DialecticEngine, "grade_independent", span("dialectic.grade_independent")),
        (dialectic, "parse_grade_transcript", span("dialectic.parse_grade")),
        (dialectic, "extract_final_proof", span("dialectic.extract_final_proof")),
        (dialectic.SolveContext, "render", span("dialectic.context_render")),
        (conjecture.ConjectureEngine, "extract_hypotheses", span("conjecture.extract")),
        (conjecture.ConjectureEngine, "verify_hypotheses", span("conjecture.verify", pair_outcome)),
        (conjecture, "parse_conjectures", span("conjecture.parse")),
        (orchestrator.Orchestrator, "run", span("orchestrator.run")),
        (orchestrator.Orchestrator, "run_parallel", span("orchestrator.run_parallel")),
        (orchestrator.Orchestrator, "resume", span("orchestrator.resume")),
        (orchestrator, "replay", span("orchestrator.replay")),
        (orchestrator, "select_top", span("orchestrator.select_top")),
        (orchestrator, "select_kth_top", span("orchestrator.select_kth_top")),
        (orchestrator, "extract_decision", span("orchestrator.extract_decision")),
        (cli, "main", span("cli.main")),
        (cli, "cmd_solve", span("cli.cmd_solve")),
        (cli, "cmd_cost", span("cli.cmd_cost")),
        (cli, "load_problem", span("cli.load_problem")),
        (cli, "load_config", span("cli.load_config")),
        (cli, "build_backend", span("cli.build_backend")),
    ]
