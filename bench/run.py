"""Benchmark of toricsplit: four seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload surface_scan --seed 1 --seconds 20 --trace 0

Run from the repository root; stdlib only, and the package is taken from
``src/`` without installing it.  Every measurement runs in a fresh
interpreter (bench/child.py) so module-level caches start empty, as they do
for a command-line user.  With ``--trace 0`` the end-to-end metrics are
measured; with ``--trace 1`` an untraced and a traced child each run
exactly the workload's stated size, and the traced one reports per-layer
self time and call counts.  Human-readable lines come first; the last
stdout line is one JSON object whose metric names and units are those
listed in BENCHMARK.json.  See bench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 5  # fresh processes whose set-up time gives setup_s, the measured one included
DEADLINE_S = 170  # every run must end within 180 s
TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.5)


class BenchError(Exception):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run bench/child.py in a fresh interpreter and return its JSON line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    cmd = [sys.executable, str(BENCH / "child.py"), *args, "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited with status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child {args} printed no result")
    return json.loads(lines[-1])


def tail_percentile(stated_size: int) -> float:
    """Highest ladder percentile with at least ten of the stated-size items beyond it."""
    return next((p for p in TAIL_LADDER if stated_size * (1 - p) >= 10), TAIL_LADDER[-1])


def quantile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank quantile."""
    return sorted_values[min(len(sorted_values) - 1, max(0, math.ceil(p * len(sorted_values)) - 1))]


def summarize(run: dict, clock: str = "scaled") -> dict:
    """End-to-end figures from the item times on the scaled or the wall clock."""
    key = "scaled_latencies_ns" if clock == "scaled" else "latencies_ns"
    latencies_ms = sorted(ns / 1e6 for ns in run[key])
    completed = run["attempted"] - run["failed"]
    p = tail_percentile(run["stated_size"])
    return {
        "items_per_s": completed / (sum(latencies_ms) / 1e3),
        "item_ms_p50": statistics.median(latencies_ms),
        "item_ms_tail": quantile(latencies_ms, p),
        "tail_percentile": p,
        "peak_rss_mb": run["peak_rss_mb"],
        "fail_ratio": run["failed"] / run["attempted"],
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def provenance() -> dict:
    git_sha = "none"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=10,
            )
            git_sha = out.stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "git": git_sha,
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
    }


def run_plain(args, child_args: list[str], deadline: float) -> tuple[dict, dict]:
    setups = [
        spawn(child_args + ["--mode", "setup", "--seconds", "0"], deadline)
        for _ in range(SETUP_SAMPLES - 1)
    ]
    run = spawn(child_args + ["--mode", "measure", "--seconds", str(args.seconds)], deadline)
    setups.append(run)
    summary = summarize(run)
    summary["setup_s"] = statistics.median(s["setup_scaled_s"] for s in setups)
    for clock in ("wall", "scaled"):
        key = "setup_s" if clock == "wall" else "setup_scaled_s"
        print(f"setup_s samples ({clock}): {' '.join(f'{s[key]:.4f}' for s in setups)}")
    return summary, run


def run_traced(child_args: list[str], deadline: float) -> tuple[dict, dict, dict]:
    # both children run exactly the stated-size prefix, so call counts repeat exactly
    plain = spawn(child_args + ["--mode", "measure", "--seconds", "0"], deadline)
    traced = spawn(child_args + ["--mode", "measure", "--seconds", "0", "--trace", "1"], deadline)
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = summarize(plain)["items_per_s"] / summarize(traced)["items_per_s"]
    return layers, plain, traced


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="toricsplit benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", type=int, default=None, help="override the stated size (smoke runs)")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "toricsplit" / "__init__.py").is_file():
        print(f"error: no toricsplit package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    child_args = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.size is not None:
        child_args += ["--size", str(args.size)]

    try:
        if args.trace:
            values, plain, traced = run_traced(child_args, deadline)
            runs = [plain, traced]
            declared = per_layer
        else:
            values, plain = run_plain(args, child_args, deadline)
            runs = [plain]
            declared = end_to_end
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    same_output = len({r["sha256"] for r in runs}) == 1
    info = provenance()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} seconds {args.seconds}")
    print(
        "provenance: "
        + " ".join(f"{k}={v!r}" if k == "cpu" else f"{k}={v}" for k, v in info.items())
    )
    for label, run in zip(("untraced", "traced"), runs):
        summary = summarize(run)
        wall = summarize(run, "wall")
        print(
            f"{label} run: {run['attempted']} items ({run['failed']} failed, stated size "
            f"{run['stated_size']}, stream {run['stream_len']}) in {run['busy_s']:.3f} s; "
            f"fail_ratio {summary['fail_ratio']:.4f}; "
            f"item_ms_tail is p{summary['tail_percentile'] * 100:g} of {run['attempted']} items"
        )
        print(
            f"{label} run on the wall clock: items_per_s {wall['items_per_s']:.6g} 1/s, "
            f"item_ms_p50 {wall['item_ms_p50']:.6g} ms, item_ms_tail {wall['item_ms_tail']:.6g} ms"
        )
        print(f"{label} run: output sha256 {run['sha256']} (first {run['stated_size']} items)")
    if args.trace:
        print(f"traced and untraced output sha256 {'match' if same_output else 'DIFFER'}")
        inclusive = traced["inclusive_s"]
        print("per-layer spans (traced run): self_s, inclusive_s, calls")
        for label in sorted(inclusive, key=lambda lbl: -values[f"{lbl}.self_s"]):
            print(
                f"  {label:38s} {values[f'{label}.self_s']:10.4f} {inclusive[label]:10.4f} "
                f"{values[f'{label}.calls']:9d}"
            )
    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"error: metrics declared in BENCHMARK.json but not measured: {missing}", file=sys.stderr)
        return 1
    for name, unit in declared.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    result = {
        "correct": failed == 0 and same_output,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
