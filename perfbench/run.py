#!/usr/bin/env python3
"""evreg benchmark: one workload, timed end to end or traced layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload regression_cv --seed 1 --seconds 12 --trace 0

Import and set-up repeat a few times; then operations repeat until --seconds
have passed (at least one).  Every step is timed in reference-host seconds
by calibration.HostClock; the metrics are medians over the steps.  Every
operation's outputs are checked (see workloads.check).  With --trace 1 the
run alternates untraced and traced operations and reports per-layer metrics
instead.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SPEC = REPO / "BENCHMARK.json"
OUT_DIR = REPO / ".perfbench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
THREADS = "1"
# imports and set-ups each repeat at least SETUP_REPS times and for at
# least SETUP_SECONDS
SETUP_REPS = 3
SETUP_SECONDS = 2.0
# `import evreg` timed in a fresh interpreter, then the calibration kernel
# there, on whichever core the child runs
IMPORT_CODE = (
    "import sys, time; sys.path[:0] = ['src', 'perfbench']; t = time.perf_counter(); "
    "import evreg; t = time.perf_counter() - t; import calibration; "
    "print(t, calibration.kernel_seconds(5))"
)


def parse_args(argv: list[str] | None, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    from calibration import PERIOD, REFERENCE_S

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(),
        "calibration": {"reference_s": REFERENCE_S, "period_s": PERIOD},
    }


def import_seconds() -> list[float]:
    """Times of `import evreg` (numpy included) in fresh interpreters, scaled."""
    from calibration import REFERENCE_S

    times = []
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(times) < SETUP_REPS or time.perf_counter() < deadline:
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE],
            cwd=REPO, capture_output=True, text=True, check=True,
        )
        seconds, kernel_s = map(float, proc.stdout.split())
        times.append(seconds * REFERENCE_S / kernel_s)
    return times


def timed_run(args, workload) -> tuple[Checker, dict[str, float], dict]:
    """Untraced run: the end-to-end metrics, and every sample they summarize."""
    import workloads
    from calibration import HostClock
    from workloads import Checker

    clock = HostClock()
    workloads.grid_clock = clock.mark
    imports = import_seconds()
    setups = []
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(setups) < SETUP_REPS or time.perf_counter() < deadline:
        state, timing = clock.run(workload.setup, args.seed)
        setups.append(timing.wall)

    timings = []

    def operation(st):
        outcome, timing = clock.run(workload.operation, st)
        timings.append(timing)
        return outcome

    checker = Checker(args.workload, args.seed)
    grids = []
    deadline = time.perf_counter() + args.seconds
    while not checker.attempted or time.perf_counter() < deadline:
        outcome = checker.attempt(operation, state)
        if outcome is not None:
            grids.append(outcome.grid_s)

    walls = [t.wall for t in timings]
    cpus = [t.cpu for t in timings]
    raw_walls = [t.raw_wall for t in timings]
    metrics = {
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "run_s": statistics.median(walls) if walls else 0.0,
        "cpu_s": statistics.median(cpus) if cpus else 0.0,
        "grid_s": statistics.median(grids) if grids else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(
        f"operations: {checker.attempted}; imports: {len(imports)}; "
        f"set-ups: {len(setups)}"
    )
    if raw_walls:
        print(f"unscaled run_s {statistics.median(raw_walls):.6f} s")
    samples = {
        "import_s": imports, "setup_s": setups, "run_s": walls, "cpu_s": cpus,
        "grid_s": grids, "unscaled_run_s": raw_walls,
    }
    return checker, metrics, {"samples": samples}


def _in_reference_seconds(metrics: dict[str, float], scale: float) -> dict[str, float]:
    return {k: v * scale if k.endswith("_s") else v for k, v in metrics.items()}


def traced_run(args, workload) -> tuple[Checker, dict[str, float], dict]:
    """Traced run: per-layer metrics, tracing overhead, and the spans.

    Each traced step runs under the HostClock too.  Its spans are timed in host
    seconds and then scaled by the step's reference seconds over its traced
    duration, so the per-layer self times still sum to the step's time.
    """
    from calibration import HostClock
    from layers import instrumented, microbenchmarks, operation_metrics, setup_metrics
    from tracer import Recorder
    from workloads import Checker

    clock = HostClock()
    setup_rec = Recorder()
    with instrumented(setup_rec, set()):
        state, timing = clock.run(setup_rec.call, "bench.setup", workload.setup, args.seed)
    setup = setup_metrics(setup_rec)
    metrics = _in_reference_seconds(setup, timing.wall / setup["setup.traced_s"])

    micro, timing = clock.run(microbenchmarks)
    metrics.update({k: v * timing.wall / timing.raw_wall for k, v in micro.items()})

    untraced, traced, spans = [], [], []

    def untraced_operation(st):
        outcome, timing = clock.run(workload.operation, st)
        untraced.append(timing.wall)
        return outcome

    def traced_operation(st):
        rec, smoothed = Recorder(), set()
        with instrumented(rec, smoothed):
            outcome, timing = clock.run(rec.call, "bench.operation", workload.operation, st)
        layers = operation_metrics(rec, smoothed)
        traced.append(_in_reference_seconds(layers, timing.wall / rec.duration("bench.operation")))
        traced[-1]["trace.run_s"] = timing.wall
        spans.append(rec.spans)
        return outcome

    checker = Checker(args.workload, args.seed)
    deadline = time.perf_counter() + args.seconds
    while not checker.attempted or time.perf_counter() < deadline:
        checker.attempt(untraced_operation, state)
        checker.attempt(traced_operation, state)

    for name in traced[0] if traced else ():
        metrics[name] = statistics.mean(op[name] for op in traced)
    if traced and untraced:
        metrics["trace.untraced_run_s"] = statistics.mean(untraced)
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
    print(f"operations: {len(untraced)} untraced, {len(traced)} traced")
    details = {"samples": {"untraced_run_s": untraced}}
    details["spans"] = {"setup": setup_rec.spans, "operations": spans}
    return checker, metrics, details


def main(argv: list[str] | None = None) -> int:
    # BLAS/OpenMP read these once, when numpy loads
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    if not (REPO / "src" / "evreg").is_dir():
        print(f"no evreg sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    env = environment()
    print(json.dumps({"env": env}))

    if args.trace:
        checker, metrics, details = traced_run(args, workload)
    else:
        checker, metrics, details = timed_run(args, workload)

    if checker.reference is not None:
        ref = checker.reference
        print(f"pooled_edap {ref.pooled_edap!r} tuned_edap {ref.tuned_edap!r}")
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in metrics.items():
        print(f"{name:<30} {value:>16.6f} {units[name]}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, env=env, workload=args.workload, seed=args.seed, **details)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
