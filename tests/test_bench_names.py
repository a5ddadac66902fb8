"""The benchmark's tracer rebinds package functions by name: every one must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_resolve(monkeypatch):
    # load bench/tracing.py without writing a bytecode cache next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"toricsplit.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"toricsplit.{layer}.{name} is traced but missing"
    # fan.walls.hit_ratio is read from the walls cache
    assert callable(getattr(importlib.import_module("toricsplit.fan").walls, "cache_info", None))
