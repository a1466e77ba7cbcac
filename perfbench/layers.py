"""Which evreg functions the traced run wraps, and the per-layer metrics.

Every span is named "<module>.<function>" after the src/evreg module that
defines the function, and that module is the span's layer.  The benchmark's
own root span is "bench.operation" (or "bench.setup"), so its self time is
the benchmark glue between calls.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np
from tracer import Recorder, counted, holders, swapped, traced
from workloads import CONFIGS

import evreg

# module -> functions whose calls become spans
SPANNED = {
    "data": ("synth_generate", "downsample", "save_events", "load_scored_events"),
    "targets": ("encode_regression", "encode_segmentation", "encode_cpd"),
    "model": ("train", "predict", "forward", "load_params", "save_params"),
    "signal": ("find_peaks", "gaussian_smooth", "window_convolve"),
    "decode": ("decode_regression", "decode_points", "decode_seg_threshold", "decode_seg_peaks"),
    "metric": ("match_events", "edap_table", "edap"),
    "experiment": ("run_cv", "grid_search", "decode_outputs"),
}
# called once per optimizer step inside train; counted without a span
STEP_COUNTER = ("model", "clip_gradients")


def _evreg_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "evreg" or name.startswith("evreg."))
    ]


def _after_hooks(smoothed: set) -> dict:
    """Counters taken from a call's arguments and result, keyed by span name."""

    def peaks(rec: Recorder, args, kwargs, result) -> None:
        rec.counts["signal.peaks_kept"] += len(result)

    def smooth(rec: Recorder, args, kwargs, result) -> None:
        if rec.inside("experiment.grid_search"):
            x = args[0] if args else kwargs["x"]
            params = args[1] if len(args) > 1 else kwargs["params"]
            rec.counts["signal.grid_smooth_calls"] += 1
            smoothed.add((hash(np.asarray(x).tobytes()), len(x), params.sigma))

    def match(rec: Recorder, args, kwargs, result) -> None:
        pred, truth = args[0], args[1]
        rec.counts["metric.match_pairs"] += len(pred) * len(truth)
        rec.counts["metric.tp"] += result.num_tp
        rec.counts["metric.predictions"] += len(result.flags)

    def detections(rec: Recorder, args, kwargs, result) -> None:
        rec.counts["decode.detections"] += len(result.onsets) + len(result.offsets)

    def forward(rec: Recorder, args, kwargs, result) -> None:
        rec.counts["model.forward_series"] += result.shape[0]

    hooks = {
        "signal.find_peaks": peaks,
        "signal.gaussian_smooth": smooth,
        "metric.match_events": match,
        "model.forward": forward,
    }
    hooks.update({f"decode.{fn}": detections for fn in SPANNED["decode"]})
    return hooks


@contextmanager
def instrumented(recorder: Recorder, smoothed: set) -> Iterator[None]:
    """Wrap every SPANNED function (and the step counter) for the block.

    smoothed collects the distinct (series content, sigma) keys smoothed
    inside grid_search, which smooth_redundancy divides by.  All attributes
    are restored on exit, also when the block raises.
    """
    hooks = _after_hooks(smoothed)
    modules = _evreg_modules()
    replacements = []
    for module_name, functions in SPANNED.items():
        module = sys.modules[f"evreg.{module_name}"]
        for fn in functions:
            name = f"{module_name}.{fn}"
            original = getattr(module, fn)
            wrapper = traced(recorder, name, original, hooks.get(name))
            replacements += [(m, attr, wrapper) for m, attr in holders(original, modules)]
    module_name, fn = STEP_COUNTER
    original = getattr(sys.modules[f"evreg.{module_name}"], fn)
    wrapper = counted(recorder, "model.train_steps", original)
    replacements += [(m, attr, wrapper) for m, attr in holders(original, modules)]
    with swapped(replacements):
        yield


def layer_self_s(recorder: Recorder) -> dict[str, float]:
    """Self time summed per layer (the part of a span name before the dot)."""
    totals: dict[str, float] = {}
    for name, seconds in recorder.self_s.items():
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


def operation_metrics(recorder: Recorder, smoothed: set) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    s, calls, counts = recorder.self_s, recorder.calls, recorder.counts
    layers = layer_self_s(recorder)
    grid_smooth = counts["signal.grid_smooth_calls"]
    forwards = calls["model.forward"]
    predictions = counts["metric.predictions"]
    out = {
        "data.synth_s": s["data.synth_generate"],
        "data.downsample_s": s["data.downsample"],
        "data.save_events_s": s["data.save_events"],
        "data.load_scored_events_s": s["data.load_scored_events"],
        "targets.encode_s": layers.get("targets", 0.0),
        "targets.encode_calls": sum(calls[f"targets.{fn}"] for fn in SPANNED["targets"]),
        "model.train_self_s": s["model.train"],
        "model.train_steps": counts["model.train_steps"],
        "model.predict_s": s["model.predict"] + s["model.forward"],
        "model.predict_calls": calls["model.predict"],
        "model.load_params_s": s["model.load_params"],
        "signal.find_peaks_s": s["signal.find_peaks"],
        "signal.find_peaks_calls": calls["signal.find_peaks"],
        "signal.peaks_kept": counts["signal.peaks_kept"],
        "signal.gaussian_smooth_s": s["signal.gaussian_smooth"],
        "signal.window_convolve_s": s["signal.window_convolve"],
        "decode.self_s": layers.get("decode", 0.0),
        "decode.detections": counts["decode.detections"],
        "metric.match_events_s": s["metric.match_events"],
        "metric.match_calls": calls["metric.match_events"],
        "metric.match_pairs": counts["metric.match_pairs"],
        "metric.edap_self_s": s["metric.edap_table"] + s["metric.edap"],
        "experiment.self_s": layers.get("experiment", 0.0),
        "bench.self_s": layers.get("bench", 0.0),
    }
    out["model.series_per_forward"] = counts["model.forward_series"] / forwards if forwards else 0.0
    out["signal.smooth_redundancy"] = (
        grid_smooth / len(smoothed) if smoothed else 0.0
    )
    out["metric.tp_share"] = counts["metric.tp"] / predictions if predictions else 0.0
    return out


def setup_metrics(recorder: Recorder) -> dict[str, float]:
    """Layer split of one traced set-up (config loading sits in bench.self_s)."""
    layers = layer_self_s(recorder)
    return {
        "setup.data_s": layers.get("data", 0.0),
        "setup.targets_s": layers.get("targets", 0.0),
        "setup.model_s": layers.get("model", 0.0),
        "setup.traced_s": recorder.duration("bench.setup"),
    }


def microbenchmarks() -> dict[str, float]:
    """Median ms of forward/gradients at (B=8, C=8, T=512), predict at (C=8, T=512)."""
    net = evreg.load_config(CONFIGS / "benchmark_regression.yaml").model
    rng = np.random.default_rng(0)
    params = evreg.init_params(net, rng)
    x = rng.standard_normal((8, net.in_channels, 512))
    y = rng.standard_normal((8, net.out_channels, 512))

    def median_ms(fn, reps: int) -> float:
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return 1000.0 * statistics.median(times)

    return {
        "model.forward_ms": median_ms(lambda: evreg.forward(params, x, net), 15),
        "model.gradients_ms": median_ms(lambda: evreg.gradients(params, (x, y), net), 9),
        "model.predict_ms": median_ms(lambda: evreg.predict(params, x[0], net), 25),
    }
