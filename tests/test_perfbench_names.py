"""The evreg functions the benchmark traces by name must keep existing.

perfbench/layers.py wraps each function it names by looking it up on its
evreg module; a renamed or deleted one breaks every traced benchmark run.
Small traced cross-validations check that the wrappers change no result
and are all removed afterwards, and that the hooks read the threshold grid's
smoothing calls as one per series and sigma.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from evreg import experiment
from evreg.config import config_from_mapping

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    yield importlib.import_module("layers")
    # drop the benchmark's own modules so no other test imports them by accident
    for name in set(sys.modules) - before:
        if str(PERFBENCH) in str(getattr(sys.modules[name], "__file__", "")):
            del sys.modules[name]


def test_traced_functions_exist(layers):
    names = [(module, fn) for module, fns in layers.SPANNED.items() for fn in fns]
    names.append(layers.STEP_COUNTER)
    for module, fn in names:
        assert callable(getattr(importlib.import_module(f"evreg.{module}"), fn, None)), (
            f"perfbench traces evreg.{module}.{fn}, which does not exist"
        )


def _evreg_attributes() -> dict:
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "evreg" or name.startswith("evreg.")
    }


def small_config(objective: str):
    doc = {
        "objective": objective,
        "data": {"synth": {
            "num_series": 8, "length": 128,
            "mean_event_duration": 12, "mean_gap": 24, "noise_std": 0.4,
        }},
        "model": {"in_channels": 2, "hidden_channels": [4], "kernel_size": 3},
        "train": {"epochs": 1, "batch_size": 4},
        "decode": {"alpha": 4},
        "metric": {"tolerances": [1, 2, 5]},
        "folds": 2,
    }
    if objective != "segmentation":
        doc["pdf"] = {"kind": "gaussian", "day_length_d": 64, "width_w": 17, "sigma": 2}
    return config_from_mapping(doc)


def traced_run(layers, config):
    """run_cv plus grid_search, untraced and then traced.

    Checks that the traced results equal the untraced ones and that every
    wrapped attribute is restored; returns the recorder and smoothed keys.
    """
    tracer = importlib.import_module("tracer")

    # called through the module, as perfbench does, so that their spans open
    def run():
        cv = experiment.run_cv(config)
        return cv, experiment.grid_search(cv.outputs, cv.truth, config.grid, config)

    plain_cv, plain_grid = run()
    before = _evreg_attributes()
    recorder, smoothed = tracer.Recorder(), set()
    with layers.instrumented(recorder, smoothed):
        traced_cv, traced_grid = run()
    after = _evreg_attributes()

    assert traced_grid == plain_grid
    assert traced_cv.pooled_edap == plain_cv.pooled_edap
    assert traced_cv.predictions == plain_cv.predictions
    assert traced_cv.outputs.keys() == plain_cv.outputs.keys()
    for sid, y in plain_cv.outputs.items():
        assert np.array_equal(traced_cv.outputs[sid], y)
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        changed = [attr for attr, value in attrs.items() if after[name][attr] is not value]
        assert not changed, f"{name} attributes left swapped: {changed}"
    return recorder, smoothed


def test_traced_run_matches_untraced(layers):
    recorder, _ = traced_run(layers, small_config("regression"))
    # spans the decode route still opens: the record decodes every series in
    # one decode_regression_batch call, which perfbench does not wrap, and it
    # picks peaks and ranks matches in private helpers, so that time sits in
    # experiment and edap_table self time
    assert recorder.calls["experiment.decode_outputs"] > 0
    assert recorder.calls["signal.gaussian_smooth"] > 0
    assert recorder.calls["metric.edap_table"] > 0
    # 2 folds x 1 epoch x 1 batch of 4 training series: one clip per step
    assert recorder.counts["model.train_steps"] == 2


def test_traced_threshold_grid_smooths_each_series_once_per_sigma(layers):
    config = small_config("segmentation")
    assert config.spec.reads_mu
    recorder, smoothed = traced_run(layers, config)
    metrics = layers.operation_metrics(recorder, smoothed)
    # 8 pooled series x the default grid's 5 sigmas, each smoothed once
    assert len(smoothed) == 8 * len(config.grid.sigma)
    assert metrics["signal.smooth_redundancy"] == 1.0
