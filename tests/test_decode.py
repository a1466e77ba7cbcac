import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import window_contrast_oracle
from evreg.decode import (
    DecodeParams,
    decode_points,
    decode_regression,
    decode_seg_peaks,
    decode_seg_threshold,
    sweep_seg_threshold,
)
from evreg.errors import InvalidProbability, InvalidSpec, LengthMismatch, NonFiniteInput
from evreg.signal import (
    SmoothingParams,
    WindowParams,
    find_peaks,
    gaussian_smooth,
    window_convolve,
)
from evreg.targets import PdfSpec, encode_regression
from evreg.types import INTERVAL, EventSet, IntervalEvent, ScoredEvents


class TestDecodeParams:
    def test_validation(self):
        with pytest.raises(InvalidSpec):
            DecodeParams(alpha=0)
        with pytest.raises(InvalidSpec):
            DecodeParams(alpha=5, mu=1.5)
        with pytest.raises(InvalidSpec):
            DecodeParams(alpha=5, sigma=-2.0)
        with pytest.raises(InvalidSpec, match="min_height=high, expected finite or None"):
            DecodeParams(alpha=5, min_height="high")

    @pytest.mark.parametrize("field,value,message", [
        ("mu", "x", "mu=x, expected in"),
        ("mu", True, "mu=True, expected in"),
        ("mu", np.True_, "mu=True, expected in"),
        ("mu", float("nan"), "mu=nan, expected in"),
        ("sigma", "x", "sigma=x, expected nonnegative or None"),
        ("sigma", True, "sigma=True, expected nonnegative or None"),
        ("min_height", True, "min_height=True, expected finite or None"),
        ("min_height", np.False_, "min_height=False, expected finite or None"),
    ])
    def test_bools_and_non_numbers_raise_invalid_spec(self, field, value, message):
        with pytest.raises(InvalidSpec, match=message):
            DecodeParams(alpha=1, **{field: value})

    def test_numpy_numbers_are_accepted(self):
        params = DecodeParams(alpha=np.int64(2), mu=np.float32(0.25), sigma=np.int64(3),
                              min_height=np.float64(0.1))
        assert (params.mu, params.sigma, params.min_height) == (0.25, 3, 0.1)

    @pytest.mark.parametrize("alpha", [True, np.True_, 2.0, 0, np.int64(0)])
    def test_alpha_follows_the_find_peaks_spacing_rule(self, alpha):
        with pytest.raises(InvalidSpec, match=f"alpha={alpha}, expected integer >= 1"):
            DecodeParams(alpha=alpha)
        with pytest.raises(InvalidSpec, match=f"alpha={alpha}, expected integer >= 1"):
            WindowParams(alpha)
        with pytest.raises(InvalidSpec, match=f"min_distance={alpha}, expected integer >= 1"):
            find_peaks(np.zeros(4), min_distance=alpha)


def pick_channel_oracle(y, params):
    """Peak picking through find_peaks: peaks of the smoothed channel, each
    scored by the raw channel value at its index."""
    smoothed = gaussian_smooth(y, SmoothingParams(params.sigma))
    peaks = find_peaks(smoothed, min_distance=params.alpha, min_height=params.min_height)
    return tuple([(p.index, float(y[p.index])) for p in peaks])


def detection_bytes(pairs):
    return [(step, struct.pack("<d", score)) for step, score in pairs]


# few distinct values (+-0.0 among them) make plateaus and ties common
channel = st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0]), max_size=48)
decode_params = st.builds(
    DecodeParams,
    alpha=st.integers(1, 6),
    sigma=st.sampled_from([None, 0.0, 0.5, 0.7, 2.0]),
    min_height=st.sampled_from([None, -0.0, 0.0, 0.2, 0.5]),
)


def seg_peaks_oracle(y, params):
    """Contrast peaks through find_peaks: onsets at peaks of I, offsets at
    peaks of -I, each scored by |I| at its index."""
    smoothed = gaussian_smooth(y, SmoothingParams(params.sigma))
    contrast = window_convolve(smoothed, WindowParams(params.alpha))
    onsets = [(p.index, abs(float(contrast[p.index])))
              for p in find_peaks(contrast, min_distance=params.alpha)]
    offsets = [(p.index, abs(float(contrast[p.index])))
               for p in find_peaks(-contrast, min_distance=params.alpha)]
    return onsets, offsets


# plateaus and zero contrasts of either sign: -0.0 is a valid probability
probability = st.lists(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0]), max_size=48)


class TestPickChannelOracle:
    @given(channel, channel, decode_params)
    @settings(max_examples=300, deadline=None)
    def test_decode_regression_bytes(self, on, off, params):
        n = min(len(on), len(off))
        y_on, y_off = np.array(on[:n]), np.array(off[:n])
        out = decode_regression(y_on, y_off, params)
        assert detection_bytes(out.onsets) == detection_bytes(pick_channel_oracle(y_on, params))
        assert detection_bytes(out.offsets) == detection_bytes(pick_channel_oracle(y_off, params))

    @given(channel, decode_params)
    @settings(max_examples=300, deadline=None)
    def test_decode_points_bytes(self, values, params):
        y = np.array(values)
        out = decode_points(y, params)
        assert out.offsets == ()
        assert detection_bytes(out.onsets) == detection_bytes(pick_channel_oracle(y, params))

    def test_negative_zero_score_keeps_its_sign(self):
        y = np.array([-1.0, -0.0, -1.0, 0.0, 0.0, -1.0])
        out = decode_points(y, DecodeParams(alpha=1, min_height=-0.0))
        assert detection_bytes(out.onsets) == detection_bytes(((1, -0.0), (3, 0.0)))

    def test_overflowing_smoothed_channel_is_rejected(self):
        # finite input whose smoothed sums round past the float range
        y = np.full(20, np.finfo(np.float64).max)
        params = DecodeParams(alpha=2, sigma=0.7)
        with pytest.raises(NonFiniteInput):
            pick_channel_oracle(y, params)
        with pytest.raises(NonFiniteInput):
            decode_points(y, params)


class TestDecodeRegression:
    def test_all_zero_channels(self):
        out = decode_regression(np.zeros(64), np.zeros(64), DecodeParams(alpha=4))
        assert out.onsets == () and out.offsets == ()

    def test_empty_channels(self):
        empty = np.array([])
        assert decode_regression(empty, empty, DecodeParams(alpha=4, sigma=2.0)) == ScoredEvents()

    def test_roundtrip_single_event(self):
        spec = PdfSpec(kind="gaussian", day_length_d=200, width_w=41, sigma=5.0)
        ev = EventSet("s", INTERVAL, (IntervalEvent(100, 150),))
        ts = encode_regression(ev, 200, spec)
        out = decode_regression(
            ts.channels[0], ts.channels[1], DecodeParams(alpha=10, sigma=None)
        )
        assert [s for s, _ in out.onsets] == [100]
        assert [s for s, _ in out.offsets] == [150]
        assert out.onsets[0][1] == pytest.approx(ts.channels[0].max())

    def test_distance_suppression_keeps_higher(self):
        y = np.zeros(64)
        y[20] = 1.0
        y[23] = 2.0
        out = decode_regression(y, np.zeros(64), DecodeParams(alpha=10))
        assert [s for s, _ in out.onsets] == [23]

    def test_score_comes_from_unsmoothed_channel(self):
        y = np.zeros(129)
        y[60:65] = [0.2, 0.8, 1.0, 0.7, 0.1]
        params = DecodeParams(alpha=5, sigma=3.0)
        out = decode_regression(y, np.zeros(129), params)
        assert len(out.onsets) == 1
        step, score = out.onsets[0]
        assert score == pytest.approx(y[step])

    def test_min_height_gate(self):
        y = np.zeros(64)
        y[10] = 0.2
        y[40] = 0.9
        out = decode_regression(
            y, np.zeros(64), DecodeParams(alpha=4, min_height=0.5)
        )
        assert [s for s, _ in out.onsets] == [40]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            decode_regression(np.zeros(5), np.zeros(6), DecodeParams(alpha=1))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        y_on, y_off = rng.random(100), rng.random(100)
        params = DecodeParams(alpha=3, sigma=2.0)
        assert decode_regression(y_on, y_off, params) == decode_regression(
            y_on, y_off, params
        )


def threshold_loop_oracle(y, params):
    """The per-sample crossing scan, as (onsets, offsets) lists of (t, |I[t]|)."""
    smoothed = gaussian_smooth(np.asarray(y, dtype=np.float64), SmoothingParams(params.sigma))
    contrast = window_convolve(smoothed, WindowParams(params.alpha))
    mu = params.mu
    onsets, offsets = [], []
    for t in range(1, len(smoothed)):
        if smoothed[t - 1] < mu and smoothed[t] > mu:
            onsets.append((t, abs(float(contrast[t]))))
        elif smoothed[t - 1] > mu and smoothed[t] < mu:
            offsets.append((t, abs(float(contrast[t]))))
    return onsets, offsets


class TestDecodeSegThreshold:
    def test_constant_zero(self):
        out = decode_seg_threshold(np.zeros(32), DecodeParams(alpha=2))
        assert out.onsets == () and out.offsets == ()

    def test_step_example(self):
        y = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        params = DecodeParams(alpha=1, mu=0.5, sigma=None)
        out = decode_seg_threshold(y, params)
        contrast = window_contrast_oracle(y, 1)
        assert out.onsets == ((2, abs(contrast[2])),)
        assert out.offsets == ((4, abs(contrast[4])),)

    def test_oscillation_one_event_per_crossing_pair(self):
        y = np.array([0.0, 1.0] * 8)  # crosses mu up/down on every step pair
        out = decode_seg_threshold(y, DecodeParams(alpha=1, mu=0.5))
        assert len(out.onsets) == 8
        assert len(out.offsets) == 7

    def test_touch_without_crossing_emits_nothing(self):
        y = np.array([0.0, 0.5, 0.0, 0.5, 1.0, 0.5, 0.0])
        out = decode_seg_threshold(y, DecodeParams(alpha=1, mu=0.5))
        # equals-mu samples never fire; the rise to 1.0 crosses via 0.5->1.0?
        # 0.5 is not < mu, so no crossing is registered at all
        assert out.onsets == () and out.offsets == ()

    def test_starts_above_mu_no_synthetic_onset(self):
        y = np.array([0.9, 0.9, 0.2, 0.2])
        out = decode_seg_threshold(y, DecodeParams(alpha=1, mu=0.5))
        assert out.onsets == ()
        assert [s for s, _ in out.offsets] == [2]

    def test_alternation_when_bracketed_below_mu(self):
        # zero margins wider than the smoothing radius keep the smoothed
        # sequence below mu at both ends, so crossings must alternate
        rng = np.random.default_rng(12)
        for _ in range(20):
            y = rng.random(200)
            y[:12] = 0.0
            y[-12:] = 0.0
            out = decode_seg_threshold(y, DecodeParams(alpha=3, mu=0.5, sigma=2.0))
            merged = sorted(
                [(s, "on") for s, _ in out.onsets] + [(s, "off") for s, _ in out.offsets]
            )
            kinds = [k for _, k in merged]
            assert kinds == ["on", "off"] * (len(kinds) // 2)

    @pytest.mark.parametrize("sigma", [None, 1.0])
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_loop_oracle_on_quantized_input(self, seed, sigma):
        # values k/4 put samples exactly on mu = 0.5, where a touch must not fire
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 5, size=int(rng.integers(1, 120))) / 4.0
        params = DecodeParams(alpha=int(rng.integers(1, 5)), mu=0.5, sigma=sigma)
        out = decode_seg_threshold(y, params)
        onsets, offsets = threshold_loop_oracle(y, params)
        assert list(out.onsets) == onsets
        assert list(out.offsets) == offsets

    @pytest.mark.parametrize("sigma", [None, 1.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_sweep_matches_loop_oracle_at_every_mu(self, seed, sigma):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 5, size=int(rng.integers(1, 120))) / 4.0
        params = DecodeParams(alpha=int(rng.integers(1, 5)), mu=0.9, sigma=sigma)
        mus = (0.5, 0.0, 0.25, 1.0, 0.6, 0.5)
        swept = sweep_seg_threshold(y, mus, params)
        assert type(swept) is list and len(swept) == len(mus)
        for mu, out in zip(mus, swept):
            assert out == decode_seg_threshold(y, DecodeParams(params.alpha, mu, sigma))
            onsets, offsets = threshold_loop_oracle(y, DecodeParams(params.alpha, mu, sigma))
            assert list(out.onsets) == onsets
            assert list(out.offsets) == offsets

    def test_empty_probabilities(self):
        out = decode_seg_threshold(np.array([]), DecodeParams(alpha=2, sigma=1.0))
        assert out == ScoredEvents()

    def test_probability_validation(self):
        with pytest.raises(InvalidProbability):
            decode_seg_threshold(np.array([0.5, 1.2]), DecodeParams(alpha=1))
        with pytest.raises(InvalidProbability):
            decode_seg_threshold(np.array([-0.1, 0.5]), DecodeParams(alpha=1))


class TestDecodeSegPeaks:
    def test_constant(self):
        out = decode_seg_peaks(np.full(32, 0.7), DecodeParams(alpha=2))
        assert out.onsets == () and out.offsets == ()

    def test_clean_step_up(self):
        y = np.array([0.0, 0.0, 1.0, 1.0])
        out = decode_seg_peaks(y, DecodeParams(alpha=1, sigma=None))
        assert len(out.onsets) == 1
        step, score = out.onsets[0]
        assert step in (1, 2)
        assert score == pytest.approx(1.0)
        assert out.offsets == ()

    def test_clean_step_down_mirrors(self):
        y = np.array([1.0, 1.0, 0.0, 0.0])
        out = decode_seg_peaks(y, DecodeParams(alpha=1, sigma=None))
        assert len(out.offsets) == 1
        step, score = out.offsets[0]
        assert step in (1, 2)
        assert score == pytest.approx(1.0)
        assert out.onsets == ()

    def test_empty_probabilities(self):
        assert decode_seg_peaks(np.array([]), DecodeParams(alpha=2, sigma=1.0)) == ScoredEvents()

    def test_mu_is_ignored(self):
        rng = np.random.default_rng(4)
        y = rng.random(128)
        a = decode_seg_peaks(y, DecodeParams(alpha=4, mu=0.1, sigma=2.0))
        b = decode_seg_peaks(y, DecodeParams(alpha=4, mu=0.9, sigma=2.0))
        assert a == b

    @given(probability, decode_params)
    @example([0.5, 0.0, 0.5, 0.0], DecodeParams(alpha=1))  # onset peak at contrast 0.0
    @example([0.0, 0.5, 0.0, 0.5], DecodeParams(alpha=1))  # offset peak at -contrast -0.0
    @example([-0.0, 0.0, -0.0, 1.0], DecodeParams(alpha=1))
    @settings(max_examples=300, deadline=None)
    def test_matches_find_peaks_form_bytes(self, values, params):
        y = np.array(values)
        out = decode_seg_peaks(y, params)
        onsets, offsets = seg_peaks_oracle(y, params)
        assert detection_bytes(out.onsets) == detection_bytes(onsets)
        assert detection_bytes(out.offsets) == detection_bytes(offsets)

    def test_monotone_step_agrees_with_threshold_decoder_on_counts(self):
        for alpha in (1, 2, 4):
            y = np.zeros(64)
            y[30:] = 1.0
            params = DecodeParams(alpha=alpha, mu=0.5)
            peaks = decode_seg_peaks(y, params)
            crossings = decode_seg_threshold(y, params)
            assert len(peaks.onsets) == len(crossings.onsets) == 1
            assert len(peaks.offsets) == len(crossings.offsets) == 0
