"""What the benchmark reads of the package must exist: the names its tracer rebinds, and Q's rows."""

import importlib
import importlib.util
import sys
from pathlib import Path

from toricsplit.fan import projective_space
from toricsplit.intersection import augmented_matrix

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


def test_benchmark_reads_of_the_intersection_matrix():
    # bench/workloads.py reads Q's rows off aim.q.entries and each wall's tau off aim.row_walls
    aim = augmented_matrix(projective_space(2))
    assert type(aim.q.entries) is tuple
    assert all(type(row) is tuple and all(type(v) is int for v in row) for row in aim.q.entries)
    assert all(type(w.tau) is tuple for w in aim.row_walls)
