"""The evreg functions the benchmark traces by name must keep existing.

perfbench/layers.py wraps each function it names by looking it up on its
evreg module; a renamed or deleted one breaks every traced benchmark run.
A small traced cross-validation checks that the wrappers change no result
and are all removed afterwards.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from evreg.config import config_from_mapping
from evreg.experiment import grid_search, run_cv

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


def test_traced_run_matches_untraced(layers):
    tracer = importlib.import_module("tracer")
    config = config_from_mapping({
        "objective": "regression",
        "data": {"synth": {
            "num_series": 8, "length": 128,
            "mean_event_duration": 12, "mean_gap": 24, "noise_std": 0.4,
        }},
        "pdf": {"kind": "gaussian", "day_length_d": 64, "width_w": 17, "sigma": 2},
        "model": {"in_channels": 2, "hidden_channels": [4], "kernel_size": 3},
        "train": {"epochs": 1, "batch_size": 4},
        "decode": {"alpha": 4},
        "metric": {"tolerances": [1, 2, 5]},
        "folds": 2,
    })

    def run():
        cv = run_cv(config)
        return cv, grid_search(cv.outputs, cv.truth, config.grid, config)

    plain_cv, plain_grid = run()
    before = _evreg_attributes()
    recorder = tracer.Recorder()
    with layers.instrumented(recorder, set()):
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
    assert recorder.calls["metric.match_events"] > 0
    assert recorder.calls["metric.edap_table"] > 0
    # 2 folds x 1 epoch x 1 batch of 4 training series: one clip per step
    assert recorder.counts["model.train_steps"] == 2
