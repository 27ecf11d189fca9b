"""The benchmark's traced run patches the package's functions and methods
by name (`TRACE_TARGETS` in perfbench/workloads.py); every name must keep
resolving where `Tracer.patch` looks it up."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    targets = importlib.import_module("workloads").TRACE_TARGETS
    assert targets
    for owner, attr, name in targets:
        if isinstance(owner, type):
            # Tracer.patch reads a class attribute from the class's own
            # __dict__, so an inherited one does not resolve there
            assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr}"
            fn = owner.__dict__[attr]
        else:
            fn = getattr(owner, attr, None)
        assert callable(fn), f"{name}: {attr} is not callable"
