"""One fresh-interpreter run of a workload, started by run.py.

With ``--mode setup`` it only imports the package and builds the inputs;
with ``--mode measure`` it then times items one at a time (closed loop).
A cyclic workload runs until ``--seconds`` of item time have passed and
at least its stated size is done; any other runs exactly its stated
size.  Checks and canonical output run outside the timed region.  The
last stdout line is one JSON object for run.py.

The host's speed drifts by up to a factor of 1.5 over seconds (other
tenants share the physical cores), so a fixed calibration kernel is timed
every CALIBRATION_INTERVAL_S of work, and each time is also reported
rescaled to a machine on which that kernel takes REFERENCE_KERNEL_MS:
``scaled = wall * REFERENCE_KERNEL_MS / kernel_ms``, with kernel_ms the
mean of the two calibrations around the item.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import shutil
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

MAX_REPORTED_FAILURES = 5
REFERENCE_KERNEL_MS = 1.0
CALIBRATION_INTERVAL_S = 0.01


def _calibration_kernel() -> int:
    # fixed interpreter-bound work: rational arithmetic, tuples and a set
    acc = Fraction(0)
    rows = set()
    for i in range(1, 40):
        row = [Fraction(i, j) for j in range(1, 6)]
        acc += sum(row) * row[i % 5]
        rows.add(tuple(x.numerator % 7 for x in row))
    return len(rows)


def kernel_ms(repeats: int = 2) -> float:
    """Fastest of ``repeats`` timings of the calibration kernel, in ms."""
    best = None
    for _ in range(repeats):
        start = perf_counter_ns()
        _calibration_kernel()
        elapsed = perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / 1e6


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()
    calibration_start = time.monotonic()
    kernel_at_start = kernel_ms(3)
    calibration_s = time.monotonic() - calibration_start

    import workloads  # imports toricsplit

    workload = workloads.WORKLOADS[args.workload]
    if args.size is not None:
        workload.size = args.size
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, extra_modules=(workloads,))

    workdir = tempfile.mkdtemp(prefix="work-", dir=Path(__file__).resolve().parent)
    try:
        items = workload.setup(random.Random(args.seed), workdir)
        # the spawn time comes from the parent's monotonic clock, shared system-wide
        setup_s = time.monotonic() - args.spawned_at - calibration_s
        kernel = (kernel_at_start + kernel_ms(3)) / 2
        setup = {"setup_s": setup_s, "setup_scaled_s": setup_s * REFERENCE_KERNEL_MS / kernel}
        if args.mode == "setup":
            print(json.dumps(setup))
            return 0
        result = measure(workload, items, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(setup)
    result["stream_len"] = len(items)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        # spans are timed on the wall clock; the run's scaled-to-wall ratio converts them
        clock_scale = sum(result["scaled_latencies_ns"]) / sum(result["latencies_ns"])
        result["layers"] = tracer.metrics(clock_scale)
        result["inclusive_s"] = {
            label: ns * clock_scale / 1e9 for label, ns in sorted(tracer.total_ns.items())
        }
        result["layers"]["cli.stdout_bytes"] = result.pop("stdout_bytes")
    print(json.dumps(result))
    return 0


def measure(workload, items, seconds: float) -> dict:
    budget_ns = int(seconds * 1e9)
    latencies: list[int] = []
    scaled: list[float] = []
    calibration_ns = int(CALIBRATION_INTERVAL_S * 1e9)
    digest = hashlib.sha256()
    failed = 0
    stdout_bytes = 0
    busy_ns = 0
    gc.collect()
    kernel_before = kernel_ms()
    batch_start = perf_counter_ns()
    i = 0
    while True:
        done = i >= workload.size and (busy_ns >= budget_ns or not workload.cyclic)
        if done or perf_counter_ns() - batch_start >= calibration_ns:
            kernel_after = kernel_ms()
            factor = 2 * REFERENCE_KERNEL_MS / (kernel_before + kernel_after)
            scaled += [ns * factor for ns in latencies[len(scaled) :]]
            kernel_before = kernel_after
            batch_start = perf_counter_ns()
        if done:
            break
        item = items[i % len(items)]
        start = perf_counter_ns()
        try:
            out = workload.run(item)
        except Exception as exc:  # a failing item is counted, reported and skipped
            out, problem = None, f"raised {type(exc).__name__}: {exc}"
        else:
            problem = None
        elapsed = perf_counter_ns() - start
        busy_ns += elapsed
        latencies.append(elapsed)
        if problem is None:
            try:
                problem = workload.check(item, out)
            except Exception as exc:  # output the check cannot read is a failure too
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failed += 1
            if failed <= MAX_REPORTED_FAILURES:
                print(f"item {i} failed: {problem}", file=sys.stderr)
        else:
            stdout_bytes += workload.stdout_bytes(out)
        if i < workload.size:
            line = "FAILED" if problem is not None else workload.canonical(item, out)
            digest.update(line.encode() + b"\n")
        i += 1
    return {
        "attempted": len(latencies),
        "failed": failed,
        "stated_size": workload.size,
        "busy_s": busy_ns / 1e9,
        "latencies_ns": latencies,
        "scaled_latencies_ns": scaled,
        "sha256": digest.hexdigest(),
        "stdout_bytes": stdout_bytes,
    }


if __name__ == "__main__":
    sys.exit(main())
