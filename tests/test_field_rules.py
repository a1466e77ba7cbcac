"""Junk field values raise an EvregError, never a raw exception or a warning.

Every config record is built with one field (or one item of a tuple field)
replaced by a junk value: a bool, a string, None, an int past the float range
or past Python's 4300-digit str limit, NaN, an infinity, a tuple, a dict, an
array, a complex number or a bare object.  The number arguments of the
public signal, metric, fold and downsampling functions get the same values.
Each call either succeeds or raises a subclass of EvregError.
"""

import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evreg.config import GridSpec, PathsSpec, load_config
from evreg.data import SynthConfig, downsample
from evreg.decode import DecodeParams
from evreg.errors import EvregError, InvalidConfig, InvalidFactor, InvalidSpec
from evreg.experiment import fold_splits
from evreg.metric import EdapConfig, average_precision, match_events
from evreg.model import ModelConfig, TrainConfig
from evreg.signal import (
    SmoothingParams,
    WindowParams,
    find_peaks,
    gaussian_smooth,
    window_convolve,
)
from evreg.targets import PdfSpec
from evreg.types import TimeSeries

CONFIG = load_config(Path(__file__).resolve().parents[1] / "configs" / "cpd.yaml")
SERIES = TimeSeries.build("s", {"a": np.arange(6.0)})
HUGE = 10**5000

JUNK = [
    True, False, np.True_, "2", "", None, 10**400, -HUGE, HUGE,
    float("nan"), float("inf"), -float("inf"), np.float32("inf"),
    (), (1, 2), {}, {"a": 1}, np.array([1, 2]), np.array([1 + 5j, 2, 3]),
    1 + 1j, object(),
]

# a valid instance of each config record; one of its fields is replaced
RECORDS = {
    "SynthConfig": SynthConfig(2, 256, 10, 20, 0.5),
    "PathsSpec": PathsSpec("series", "events.csv"),
    "ModelConfig": ModelConfig(in_channels=2, hidden_channels=(4,)),
    "TrainConfig": TrainConfig(),
    "PdfSpec": PdfSpec("gaussian", 100, 33, sigma=2.0),
    "PdfSpec-edap": PdfSpec("edap", 64, 17, thresholds=(1, 2)),
    "GridSpec": GridSpec(),
    "DecodeParams": DecodeParams(alpha=2),
    "SmoothingParams": SmoothingParams(1.0),
    "WindowParams": WindowParams(2),
    "EdapConfig": EdapConfig(tolerances=(1, 2)),
}


def _record_sites():
    """name -> a call that rebuilds a record, through its constructor
    (dataclasses.replace), with one field or the first item of one tuple
    field set to its argument: each record of RECORDS, CONFIG and each
    record nested in CONFIG."""
    records = {**RECORDS, "config": CONFIG}
    records.update({f"config.{f.name}": getattr(CONFIG, f.name) for f in fields(CONFIG)})
    sites = {}
    for prefix, record in records.items():
        if not is_dataclass(record):
            continue
        for f in fields(record):
            def call(value, record=record, name=f.name):
                return replace(record, **{name: value})

            sites[f"{prefix}.{f.name}"] = call
            if isinstance(getattr(record, f.name), tuple):
                sites[f"{prefix}.{f.name}[0]"] = lambda value, call=call: call((value,))
    return sites


SITES = {
    **_record_sites(),
    "find_peaks.x": lambda v: find_peaks(v),
    "find_peaks.min_distance": lambda v: find_peaks(np.zeros(5), min_distance=v),
    "find_peaks.min_height": lambda v: find_peaks(np.zeros(5), min_height=v),
    "gaussian_smooth.x": lambda v: gaussian_smooth(v, SmoothingParams(None)),
    "gaussian_smooth.x-sigma": lambda v: gaussian_smooth(v, SmoothingParams(1.0)),
    "window_convolve.x": lambda v: window_convolve(v, WindowParams(1)),
    "match_events.tol": lambda v: match_events([(1, 0.5)], [1], v),
    "average_precision.num_truth": lambda v: average_precision([True, False], v),
    "fold_splits.folds": lambda v: fold_splits(["a", "b", "c"], v),
    "downsample.factor_D": lambda v: downsample(SERIES, v),
}


def _with_every_junk_value(test):
    for value in JUNK:
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("site", SITES)
@_with_every_junk_value
@given(value=st.one_of(st.integers(), st.floats(), st.text(max_size=3)))
@settings(max_examples=15, deadline=None)
def test_junk_is_accepted_or_raises_an_evreg_error(site, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            SITES[site](value)
        except EvregError:
            pass


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: find_peaks(np.zeros(5), min_distance=-HUGE), InvalidSpec,
                 id="find_peaks-min_distance"),
    pytest.param(lambda: find_peaks(np.zeros(5), min_height=-HUGE), InvalidSpec,
                 id="find_peaks-min_height"),
    pytest.param(lambda: match_events([(1, 0.5)], [1], -HUGE), InvalidSpec, id="match_events-tol"),
    pytest.param(lambda: DecodeParams(alpha=-HUGE), InvalidSpec, id="DecodeParams-alpha"),
    pytest.param(lambda: DecodeParams(alpha=1, mu=-HUGE), InvalidSpec, id="DecodeParams-mu"),
    pytest.param(lambda: SmoothingParams(-HUGE), InvalidSpec, id="SmoothingParams-negative"),
    pytest.param(lambda: SmoothingParams(HUGE), InvalidSpec, id="SmoothingParams-wide"),
    pytest.param(lambda: GridSpec(sigma=(HUGE,)), InvalidConfig, id="GridSpec-sigma"),
    pytest.param(lambda: EdapConfig(tolerances=(-HUGE,)), InvalidSpec, id="EdapConfig-tolerances"),
    pytest.param(lambda: PdfSpec("hard", -HUGE, 1), InvalidSpec, id="PdfSpec-day_length_d"),
    pytest.param(lambda: PdfSpec("hard", 11, -HUGE), InvalidSpec, id="PdfSpec-width_w"),
    pytest.param(lambda: ModelConfig(in_channels=-HUGE), InvalidConfig, id="ModelConfig-in_channels"),
    pytest.param(lambda: ModelConfig(in_channels=2, kernel_size=-HUGE), InvalidConfig,
                 id="ModelConfig-kernel_size"),
    pytest.param(lambda: ModelConfig(in_channels=2, seed=-HUGE), InvalidConfig,
                 id="ModelConfig-seed"),
    pytest.param(lambda: SynthConfig(2, 256, 10, 20, 0.5, seed=-HUGE), InvalidConfig,
                 id="SynthConfig-seed"),
    pytest.param(lambda: fold_splits(["a", "b", "c"], -HUGE), InvalidConfig, id="fold_splits"),
    pytest.param(lambda: replace(CONFIG, folds=-HUGE), InvalidConfig, id="config-folds"),
    pytest.param(lambda: replace(CONFIG, downsample=-HUGE), InvalidConfig, id="config-downsample"),
    pytest.param(lambda: downsample(SERIES, -HUGE), InvalidFactor, id="downsample"),
    # an array choice field is not a string, so it is never tested with `in`
    pytest.param(
        lambda: ModelConfig(in_channels=2, hidden_channels=(4,), out_mode=np.array([1, 2])),
        InvalidConfig, id="ModelConfig-out_mode-array",
    ),
    pytest.param(lambda: PdfSpec(np.array([1, 2]), 10, 3), InvalidSpec, id="PdfSpec-kind-array"),
])
def test_huge_ints_and_array_choices_raise_their_typed_error(call, error):
    with pytest.raises(error):
        call()
