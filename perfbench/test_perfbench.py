"""Tests of the benchmark itself: span arithmetic, restoration, smoke runs.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))

from tracer import Recorder, holders, swapped, traced  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_calls():
    # outer [0, 10] holds inner [2, 5] (which holds leaf [3, 4]) and other [6, 9]
    rec = Recorder(clock=fake_clock([0, 2, 3, 4, 5, 6, 9, 10]))

    def leaf():
        return "leaf"

    def inner():
        return rec.call("b.leaf", leaf)

    def other():
        assert rec.inside("a.outer") and rec.inside("c.other")

    def outer():
        assert rec.call("b.inner", inner) == "leaf"
        rec.call("c.other", other)

    rec.call("a.outer", outer)
    assert dict(rec.self_s) == {"a.outer": 4, "b.inner": 2, "b.leaf": 1, "c.other": 3}
    assert sum(rec.self_s.values()) == rec.duration("a.outer") == 10
    assert rec.spans == [
        ("a.outer", 0, 10, -1),
        ("b.inner", 2, 5, 0),
        ("b.leaf", 3, 4, 1),
        ("c.other", 6, 9, 0),
    ]
    assert not rec.inside("a.outer")


def test_attributes_restored_and_span_closed_after_exception():
    def fail(x):
        raise ValueError(x)

    mod_a = types.ModuleType("mod_a")
    mod_b = types.ModuleType("mod_b")
    mod_a.fail = mod_b.fail_alias = fail
    mod_a.other = len
    rec = Recorder()
    wrapper = traced(rec, "mod_a.fail", fail)
    bound = holders(fail, [mod_a, mod_b])
    assert bound == [(mod_a, "fail"), (mod_b, "fail_alias")]
    with pytest.raises(ValueError):
        with swapped([(m, attr, wrapper) for m, attr in bound]):
            assert mod_a.fail is wrapper and mod_b.fail_alias is wrapper
            mod_b.fail_alias(1)
    assert mod_a.fail is fail and mod_b.fail_alias is fail and mod_a.other is len
    assert rec.calls["mod_a.fail"] == 1 and rec.spans[0][0] == "mod_a.fail"
    assert not rec.inside("mod_a.fail")


def test_instrumented_restores_evreg_after_exception():
    import evreg
    from evreg import decode, experiment, model
    from layers import instrumented

    before = (model.predict, experiment.train, decode.find_peaks, evreg.match_events)
    rec = Recorder()
    with pytest.raises(evreg.errors.EvregError):
        with instrumented(rec, set()):
            assert experiment.predict is not before[0]
            rec.call("bench.operation", evreg.find_peaks, [0.0, 1.0, 0.0], min_distance=0)
    assert (model.predict, experiment.train, decode.find_peaks, evreg.match_events) == before
    assert rec.calls["signal.find_peaks"] == 1


def test_host_clock_scales_stretches_and_restores_timer(monkeypatch):
    import signal

    import calibration

    # a host twice as slow as the reference: every second counts as half
    monkeypatch.setattr(calibration, "kernel_seconds", lambda reps=1: 2 * calibration.REFERENCE_S)
    clock = calibration.HostClock(period=0.01)

    def busy():
        end = time.perf_counter() + 0.05
        while time.perf_counter() < end:
            pass
        return 7

    before = signal.getsignal(signal.SIGALRM)
    result, timing = clock.run(busy)
    assert result == 7 and timing.raw_wall >= 0.05
    assert timing.wall == pytest.approx(timing.raw_wall / 2)
    assert 0 < timing.cpu <= timing.wall * 1.05

    def fail():
        raise ValueError("inside a timed step")

    with pytest.raises(ValueError):
        clock.run(fail)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def run_bench(cwd: Path, workload: str, trace: int, seed: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_traced_run(workload):
    """At the pinned seed: pinned EDAPs, traced == untraced, layer times add up."""
    proc = run_bench(REPO, workload, trace=1, seed=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    self_times = [
        v for k, v in metrics.items()
        if k.endswith("_s") and not k.startswith(("setup.", "trace."))
    ]
    assert sum(self_times) == pytest.approx(metrics["trace.run_s"], rel=1e-9)


def test_smoke_timed_run():
    proc = run_bench(REPO, "regression_decode", trace=0, seed=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name


def test_fails_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "regression_cv", trace=0, seed=1)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
