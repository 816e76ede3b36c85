"""The traced benchmark wraps names of the program: each must exist.

``bench/instrument.py`` rebinds every function it traces by name, so a
program change that drops or renames one breaks the traced bench. This
builds its targets over the loaded package, installs and uninstalls them,
and runs no bench.
"""
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from proofpipe import cli, conjecture, core, dialectic, gateway, orchestrator, prompts, trace

INSTRUMENT = Path(__file__).resolve().parents[1] / "bench" / "instrument.py"


def load_instrument(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def bindings(targets) -> dict:
    """Every name of the ``proofpipe`` modules and of each class the targets wrap."""
    owners = [m for n, m in sys.modules.items() if n == "proofpipe" or n.startswith("proofpipe.")]
    owners += [owner for owner, _, _ in targets if isinstance(owner, type)]
    return {(id(owner), key): value for owner in owners for key, value in list(vars(owner).items())}


def test_every_span_target_installs_and_uninstalls(monkeypatch):
    instrument = load_instrument(monkeypatch)
    tracer = instrument.Tracer()
    pp = SimpleNamespace(cli=cli, conjecture=conjecture, core=core, dialectic=dialectic, gateway=gateway,
                         orchestrator=orchestrator, prompts=prompts, trace=trace)
    targets = instrument.span_targets(tracer, pp)
    before = bindings(targets)
    try:
        tracer.install(targets)
        traced = bindings(targets)
    finally:
        tracer.uninstall()
    for owner, attr, _ in targets:
        if isinstance(owner, type):
            assert traced[id(owner), attr] is not before[id(owner), attr], attr
    after = bindings(targets)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
