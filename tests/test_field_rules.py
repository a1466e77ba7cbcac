"""Junk field values raise an EvregError, never a raw exception or a warning.

Every config record is built with one field (or one item of a tuple field)
replaced by a junk value: a bool, a string, None, an int past the float range
or past Python's 4300-digit str limit, NaN, an infinity, a tuple, a dict, an
array, a complex number or a bare object.  The number arguments of the
public signal, metric, fold and downsampling functions get the same values.
The array arguments of the model, decoders, targets, series and AP get array
junk: complex arrays, strings, ragged lists, dicts, a bare object, None, an
int past the float range, and arrays holding NaN or an infinity.  Each call either succeeds or raises a subclass
of EvregError.  Every public function that takes an EventSet gets event
steps of each integral type validate_events accepts (floats, numpy floats,
Decimals and numpy ints), and must give what it gives for int steps.
"""

import functools
import warnings
from decimal import Decimal
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evreg.config import GridSpec, PathsSpec, load_config
from evreg.data import SynthConfig, downsample, save_events
from evreg.decode import (
    DecodeParams,
    decode_points,
    decode_points_arrays,
    decode_regression,
    decode_regression_arrays,
    decode_seg_peaks,
    decode_seg_threshold,
)
from evreg.errors import EvregError, InvalidConfig, InvalidFactor, InvalidSpec
from evreg.experiment import encode_targets, fit, fold_splits, grid_search
from evreg.metric import (
    EdapConfig,
    average_precision,
    edap,
    edap_arrays,
    edap_table,
    match_events,
)
from evreg.model import (
    ModelConfig,
    TrainConfig,
    forward,
    gradients,
    init_params,
    loss,
    predict,
    train,
)
from evreg.signal import (
    SmoothingParams,
    WindowParams,
    find_peaks,
    gaussian_smooth,
    window_convolve,
)
from evreg.targets import (
    PdfSpec,
    TargetSeries,
    encode_cpd,
    encode_regression,
    encode_segmentation,
    gamma,
)
from evreg.types import (
    INTERVAL,
    POINT,
    EventSet,
    IntervalEvent,
    PointEvent,
    ScoredEvents,
    TimeSeries,
    _scored_rows,
    derive_state_labels,
    event_fault,
    points_from_intervals,
    validate_events,
    validate_series,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
CONFIG = load_config(CONFIGS / "cpd.yaml")
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


# complex arrays of each shape the array sites below accept, strings, ragged
# lists, dicts, a bare object, None, an int past the float range, and arrays
# holding NaN or an infinity
ARRAY_JUNK = [
    np.array([0.1 + 1j, 0.9, 0.1]), np.full((2, 8), 1j), np.full((1, 2, 8), 0.5 + 1j),
    "abc", "", [[1.0], [1.0, 2.0]], [[[0.0] * 8, [0.0] * 7]], {}, {"a": 1}, object(), None,
    10**400, [10**400, 1.0],
    # NaN and an infinity in arrays of each shape the sites accept
    np.array([0.1, np.nan, 0.1]), np.full((2, 8), np.inf), np.full((1, 2, 8), -np.inf),
    np.where(np.arange(16).reshape(1, 2, 8) == 5, np.nan, 0.5),
]

MODEL = ModelConfig(in_channels=2, hidden_channels=(2,), kernel_size=3)
SEG_MODEL = ModelConfig(in_channels=2, hidden_channels=(2,), kernel_size=3,
                        out_mode="segmentation_2class")
PARAMS = init_params(MODEL)
X, Y = np.zeros((2, 8)), np.zeros((2, 8))
ONE_STEP = TrainConfig(epochs=1, batch_size=1)
DECODE = DecodeParams(alpha=1)

# every public entry that takes a caller's array, with that array replaced
ARRAY_SITES = {
    "forward.x": lambda v: forward(PARAMS, v, MODEL),
    "predict.x": lambda v: predict(PARAMS, v, MODEL),
    "train.input": lambda v: train([(v, Y)], MODEL, ONE_STEP),
    "train.target": lambda v: train([(X, v)], MODEL, ONE_STEP),
    "train.labels": lambda v: train([(X, v)], SEG_MODEL, ONE_STEP),
    "gradients.x": lambda v: gradients(PARAMS, (v, Y[None]), MODEL),
    "loss.pred": lambda v: loss(v, Y[None], "regression_2ch"),
    "loss.target": lambda v: loss(Y[None], v, "regression_2ch"),
    "loss.labels": lambda v: loss(np.full((1, 2, 8), 0.5), v, "segmentation_2class"),
    "loss.probabilities": lambda v: loss(v, np.zeros((1, 8)), "segmentation_2class"),
    "TimeSeries.build": lambda v: TimeSeries.build("s", {"a": v}),
    "validate_series": lambda v: validate_series(TimeSeries("s", 3, {"a": v})),
    "decode_regression.y_on": lambda v: decode_regression(v, np.zeros(3), DECODE),
    "decode_regression.y_off": lambda v: decode_regression(np.zeros(3), v, DECODE),
    # the list forms, through the records that types._scored_rows builds
    "decode_regression_batch": lambda v: _scored_rows(
        *decode_regression_arrays([v], [v], DECODE), 1),
    "decode_points.y": lambda v: decode_points(v, DECODE),
    "decode_points_batch": lambda v: _scored_rows(*decode_points_arrays([v], DECODE), 1),
    "decode_seg_threshold.y": lambda v: decode_seg_threshold(v, DECODE),
    "decode_seg_peaks.y": lambda v: decode_seg_peaks(v, DECODE),
    "TargetSeries.channels": lambda v: TargetSeries(v, 1.0, ("a",)),
    "gamma.kernel": lambda v: gamma(v, 10),
    "average_precision.flags": lambda v: average_precision(v, 1),
}


def _with_every_junk_value(test, junk=JUNK):
    for value in junk:
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


# reals small enough that the model and decoders take them without
# overflowing, and NaN and the infinities, which each site takes or rejects
REALS = st.one_of(
    st.integers(-2, 2), st.floats(-2, 2), st.booleans(),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
)
# items of every kind an array may be built from
ITEMS = st.one_of(
    REALS, st.text(max_size=2), st.complex_numbers(max_magnitude=2), st.none()
)


def rows(items):
    """(channels, steps) lists as predict and train take one series."""
    return st.lists(st.lists(items, min_size=8, max_size=8), min_size=2, max_size=2)


@pytest.mark.parametrize("site", ARRAY_SITES)
@functools.partial(_with_every_junk_value, junk=ARRAY_JUNK)
@given(value=st.one_of(
    st.lists(ITEMS, max_size=8),
    rows(ITEMS),
    # all real, so that a non-finite value reaches the model's own checks;
    # as one series and as a batch of one, as forward takes it
    st.lists(REALS, max_size=8),
    rows(REALS),
    rows(REALS).map(lambda value: [value]),
))
@settings(max_examples=15, deadline=None)
def test_array_junk_is_accepted_or_raises_an_evreg_error(site, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ARRAY_SITES[site](value)
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


# integral event steps of each type validate_events accepts, int first
STEP_TYPES = [int, float, np.float64, np.float32, Decimal, np.int64, np.int32, np.uint8]
STEPS = 32
STEP_SERIES = TimeSeries.build("s", {"a": np.sin(np.arange(STEPS) / 3.0)})
REGRESSION = load_config(CONFIGS / "benchmark_regression.yaml")
SEGMENTATION = load_config(CONFIGS / "benchmark_segmentation.yaml")
PDF = PdfSpec("gaussian", 64, 17, sigma=2.0)
EDAP = EdapConfig(tolerances=(1, 2))
POINT_EDAP = EdapConfig(tolerances=(1, 2), classes=("point",))
PRED = {"s": ScoredEvents(((3, 0.9), (12, 0.4)), ((9, 0.8),))}
# PRED, and point detections at 3 and 11, as the detection arrays that
# metric.edap_arrays scores
PRED_ARRAYS = (np.array([0, 0, 1]), np.array([3, 12, 9]), np.array([0.9, 0.4, 0.8]))
POINT_ARRAYS = (np.array([0, 0]), np.array([3, 11]), np.array([0.9, 0.4]))
OUTPUT = np.abs(np.sin(np.arange(STEPS) / 2.0))[None]
TINY = replace(
    CONFIG,
    model=replace(CONFIG.model, in_channels=1, hidden_channels=(2,), kernel_size=3),
    train=replace(CONFIG.train, epochs=1, batch_size=1),
)


def _intervals(step) -> EventSet:
    return EventSet("s", INTERVAL, (IntervalEvent(step(2), step(5)), IntervalEvent(step(9), step(14))))


def _points(step) -> EventSet:
    return EventSet("s", POINT, (PointEvent(step(3)), PointEvent(step(11))))


def _plain(value):
    """value with each array replaced by its dtype, shape and bytes, and each
    record by its type name and fields, so that results compare with ==."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if is_dataclass(value):
        return type(value).__name__, {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return value


def _saved_rows(step, tmp):
    save_events(tmp / "events.csv", {"s": _intervals(step), "t": _points(step)})
    return (tmp / "events.csv").read_text().splitlines()


# every public entry that takes an EventSet, called with events whose steps
# are built by step
EVENT_SITES = {
    "event_fault": lambda step, tmp: (event_fault(_intervals(step), STEPS),
                                      event_fault(_points(step), STEPS)),
    "validate_events": lambda step, tmp: (validate_events(_intervals(step), STEPS),
                                          validate_events(_points(step), STEPS)),
    "derive_state_labels": lambda step, tmp: derive_state_labels(_intervals(step), STEPS),
    "points_from_intervals": lambda step, tmp: points_from_intervals(_intervals(step)),
    "encode_regression": lambda step, tmp: encode_regression(_intervals(step), STEPS, PDF),
    "encode_cpd": lambda step, tmp: encode_cpd(_points(step), STEPS, PDF),
    "encode_segmentation": lambda step, tmp: encode_segmentation(_intervals(step), STEPS),
    "encode_targets-regression": lambda step, tmp: encode_targets(
        STEP_SERIES, _intervals(step), REGRESSION),
    "encode_targets-segmentation": lambda step, tmp: encode_targets(
        STEP_SERIES, _intervals(step), SEGMENTATION),
    "encode_targets-cpd": lambda step, tmp: encode_targets(STEP_SERIES, _points(step), CONFIG),
    "downsample": lambda step, tmp: (downsample(STEP_SERIES, 3, _intervals(step)),
                                     downsample(STEP_SERIES, 3, _points(step))),
    # each integral step is written as an int, so every field compares
    "save_events": _saved_rows,
    "edap_table": lambda step, tmp: edap_table(PRED, {"s": _intervals(step)}, EDAP),
    "edap": lambda step, tmp: edap(PRED, {"s": _intervals(step)}, EDAP),
    # the batch route: several prediction sets scored as arrays
    "edap_batch": lambda step, tmp: edap_arrays(
        ["s"], [PRED_ARRAYS, PRED_ARRAYS], {"s": _intervals(step)}, EDAP),
    "edap_table_batch": lambda step, tmp: edap_arrays(
        ["s"], [POINT_ARRAYS], {"s": _points(step)}, POINT_EDAP),
    "grid_search": lambda step, tmp: grid_search(
        {"s": OUTPUT}, {"s": _points(step)}, CONFIG.grid, CONFIG),
    "fit": lambda step, tmp: fit(TINY, [(STEP_SERIES, _points(step))]).params.flat,
}


@pytest.mark.parametrize("site", EVENT_SITES)
@pytest.mark.parametrize("step", STEP_TYPES[1:], ids=lambda step: step.__name__)
def test_integral_event_steps_of_any_type_work_as_ints(site, step, tmp_path):
    # validate_events accepts each of these steps, so each site works with
    # them (an EvregError would be allowed, but none is raised) and gives
    # what it gives for the ints they equal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = EVENT_SITES[site](step, tmp_path)
        except EvregError:
            return
    assert _plain(got) == _plain(EVENT_SITES[site](int, tmp_path))
