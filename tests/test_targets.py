import math
import warnings

import numpy as np
import pytest

from evreg.errors import InvalidEvents, InvalidRange, InvalidSpec, ZeroKernel
from evreg.targets import (
    PdfSpec,
    TargetSeries,
    encode_cpd,
    encode_regression,
    encode_segmentation,
    gamma,
    make_kernel,
    sigma_schedule,
)
from evreg.types import (
    INTERVAL,
    POINT,
    EventSet,
    IntervalEvent,
    PointEvent,
    points_from_intervals,
)


def hard_spec(d=100, w=5):
    return PdfSpec(kind="hard", day_length_d=d, width_w=w)


class TestMakeKernel:
    def test_hard(self):
        np.testing.assert_array_equal(make_kernel(hard_spec()), [0, 0, 1, 0, 0])

    def test_edap_staircase(self):
        spec = PdfSpec(kind="edap", day_length_d=100, width_w=5, thresholds=(1, 2))
        np.testing.assert_allclose(make_kernel(spec), [0.5, 1.0, 1.0, 1.0, 0.5])

    def test_gaussian_values(self):
        spec = PdfSpec(kind="gaussian", day_length_d=100, width_w=9, sigma=1.0)
        k = make_kernel(spec)
        assert k[4] == 1.0
        np.testing.assert_allclose(k[3], math.exp(-0.5), rtol=1e-12)
        np.testing.assert_allclose(k[5], math.exp(-0.5), rtol=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            PdfSpec(kind="hard", day_length_d=50, width_w=7),
            PdfSpec(kind="gaussian", day_length_d=200, width_w=19, sigma=2.0),
            PdfSpec(kind="edap", day_length_d=100, width_w=13, thresholds=(1, 3, 6)),
        ],
    )
    def test_symmetry_and_unit_peak(self, spec):
        k = make_kernel(spec)
        np.testing.assert_array_equal(k, k[::-1])
        assert k[len(k) // 2] == 1.0
        assert np.all(k >= 0)

    def test_even_width_rejected(self):
        with pytest.raises(InvalidSpec):
            PdfSpec(kind="hard", day_length_d=100, width_w=4)

    @pytest.mark.parametrize(
        "sigma,width", [(1e-200, 3), (1e-200, 1001), (1e-160, 17), (1e-151, 100001)]
    )
    def test_tiny_sigma_is_hard_without_warnings(self, sigma, width):
        # 2 sigma^2 is 0 or subnormal, or k^2 / (2 sigma^2) passes the float
        # range: the taps were NaN at the centre or raised overflow warnings
        spec = PdfSpec(kind="gaussian", day_length_d=width, width_w=width, sigma=sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = make_kernel(spec)
        assert kernel.tobytes() == make_kernel(hard_spec(width, width)).tobytes()

    @pytest.mark.parametrize("sigma", [1.0, 2.0, 10.0, 100.0, 1000.0, 0.3, 7.5])
    def test_gaussian_bits_unchanged(self, sigma):
        width = 2 * math.ceil(4.0 * sigma) + 3
        spec = PdfSpec(kind="gaussian", day_length_d=width, width_w=width, sigma=sigma)
        t = (np.arange(width) - width // 2).astype(np.float64)
        expected = np.exp(-(t**2) / (2.0 * sigma**2))
        assert make_kernel(spec).tobytes() == expected.tobytes()

    def test_gaussian_needs_room(self):
        with pytest.raises(InvalidSpec):
            PdfSpec(kind="gaussian", day_length_d=100, width_w=5, sigma=1.0)

    def test_edap_needs_sorted_thresholds(self):
        with pytest.raises(InvalidSpec):
            PdfSpec(kind="edap", day_length_d=100, width_w=9, thresholds=(3, 1))
        for thresholds in [(1, math.inf), ("a",), (1, math.nan), None]:
            with pytest.raises(InvalidSpec, match="ascending distinct positive integer"):
                PdfSpec(kind="edap", day_length_d=100, width_w=9, thresholds=thresholds)

    def test_d_smaller_than_width_rejected(self):
        with pytest.raises(InvalidSpec):
            PdfSpec(kind="hard", day_length_d=3, width_w=5)


class TestGamma:
    def test_hard_d100(self):
        assert gamma(make_kernel(hard_spec(d=100)), 100) == pytest.approx(0.1)

    def test_hard_table_d(self):
        g = gamma(make_kernel(hard_spec(d=17280)), 17280)
        assert g == pytest.approx(0.0076066, abs=1e-6)

    def test_gaussian_matches_continuous_integral(self):
        spec = PdfSpec(kind="gaussian", day_length_d=17280, width_w=401, sigma=50.0)
        g = gamma(make_kernel(spec), 17280)
        continuous = math.sqrt(50.0 * math.sqrt(math.pi) / 17280)
        assert g == pytest.approx(continuous, rel=1e-3)
        assert g == pytest.approx(0.0716, abs=5e-4)

    def test_amplitude_linearity(self):
        k = make_kernel(PdfSpec(kind="gaussian", day_length_d=300, width_w=25, sigma=3.0))
        np.testing.assert_allclose(gamma(3.5 * k, 300), 3.5 * gamma(k, 300), rtol=1e-12)
        np.testing.assert_allclose(gamma(-2.0 * k, 300), 2.0 * gamma(k, 300), rtol=1e-12)

    def test_zero_kernel(self):
        with pytest.raises(ZeroKernel):
            gamma(np.zeros(5), 100)

    def test_bad_d(self):
        with pytest.raises(InvalidRange):
            gamma(np.ones(5), 0)


def test_target_series_needs_one_name_per_channel():
    with pytest.raises(InvalidSpec, match=r"channels shape \(2, 5\) does not match names"):
        TargetSeries(np.zeros((2, 5)), 1.0, ("onset",))


class TestEncodeRegression:
    def test_empty_events(self):
        ts = encode_regression(EventSet("s", INTERVAL, ()), 50, hard_spec(d=10, w=5))
        assert ts.channels.shape == (2, 50)
        assert np.all(ts.channels == 0.0)

    def test_hard_single_event_height(self):
        spec = PdfSpec(kind="hard", day_length_d=10, width_w=5)
        ev = EventSet("s", INTERVAL, (IntervalEvent(5, 8),))
        ts = encode_regression(ev, 10, spec)
        assert ts.channels[0, 5] == pytest.approx(math.sqrt(10))
        assert np.count_nonzero(ts.channels[0]) == 1
        assert ts.channels[1, 8] == pytest.approx(math.sqrt(10))
        assert ts.names == ("onset", "offset")

    def test_superposition_of_overlapping_kernels(self):
        # two onsets 3 steps apart with sigma=2: their kernels overlap and
        # the encoded channel must equal the sum of the individual encodings
        spec = PdfSpec(kind="gaussian", day_length_d=100, width_w=17, sigma=2.0)
        first = IntervalEvent(40, 42)
        second = IntervalEvent(43, 100)
        one = encode_regression(EventSet("s", INTERVAL, (first,)), 128, spec)
        two = encode_regression(EventSet("s", INTERVAL, (second,)), 128, spec)
        both = encode_regression(EventSet("s", INTERVAL, (first, second)), 128, spec)
        assert np.any((one.channels[0] != 0) & (two.channels[0] != 0))  # overlap
        np.testing.assert_allclose(
            both.channels[0], one.channels[0] + two.channels[0], atol=1e-12
        )

    def test_boundary_truncation(self):
        spec = PdfSpec(kind="gaussian", day_length_d=64, width_w=17, sigma=2.0)
        kernel = make_kernel(spec)
        g = gamma(kernel, 64)
        ev = EventSet("s", INTERVAL, (IntervalEvent(0, 64),))
        ts = encode_regression(ev, 64, spec)
        # onset at 0 keeps only the right half of the kernel
        np.testing.assert_allclose(ts.channels[0, :9], kernel[8:] / g, atol=1e-12)
        # offset at T=64 keeps only the left tail (center excluded)
        np.testing.assert_allclose(ts.channels[1, 56:], kernel[:8] / g, atol=1e-12)

    def test_offset_may_equal_length(self):
        spec = hard_spec(d=10, w=5)
        ts = encode_regression(EventSet("s", INTERVAL, (IntervalEvent(2, 10),)), 10, spec)
        # the hard spike at offset==T falls entirely outside the series
        assert np.all(ts.channels[1] == 0.0)

    def test_point_kind_rejected(self):
        with pytest.raises(InvalidEvents):
            encode_regression(EventSet("s", POINT, (PointEvent(1),)), 10, hard_spec(10, 5))

    def test_zero_prediction_mse_near_one(self):
        # one event per d steps: the normalization calibrates mean(target^2) ~ 1
        d = 500
        spec = PdfSpec(kind="gaussian", day_length_d=d, width_w=41, sigma=5.0)
        events = [IntervalEvent(d * i + 150, d * i + 350) for i in range(4)]
        ts = encode_regression(EventSet("s", INTERVAL, tuple(events)), 4 * d, spec)
        for channel in ts.channels:
            assert 0.9 <= np.mean(channel**2) <= 1.1


class TestEncodeCpd:
    def test_empty(self):
        spec = hard_spec(d=4, w=3)
        ts = encode_cpd(EventSet("s", POINT, ()), 4, spec)
        assert ts.channels.shape == (1, 4)
        assert np.all(ts.channels == 0.0)

    def test_single_point_height(self):
        spec = PdfSpec(kind="hard", day_length_d=4, width_w=3)
        ts = encode_cpd(EventSet("s", POINT, (PointEvent(2),)), 4, spec)
        assert ts.channels[0, 2] == pytest.approx(2.0)
        assert ts.names == ("point",)

    def test_deterministic(self):
        spec = PdfSpec(kind="gaussian", day_length_d=64, width_w=17, sigma=2.0)
        ev = EventSet("s", POINT, (PointEvent(10), PointEvent(30)))
        a = encode_cpd(ev, 64, spec)
        b = encode_cpd(ev, 64, spec)
        np.testing.assert_array_equal(a.channels, b.channels)

    def test_interval_kind_rejected(self):
        with pytest.raises(InvalidEvents):
            encode_cpd(EventSet("s", INTERVAL, (IntervalEvent(0, 2),)), 10, hard_spec(10, 5))

    def test_equals_regression_onset_channel(self):
        spec = PdfSpec(kind="gaussian", day_length_d=64, width_w=17, sigma=2.0)
        ev = EventSet(
            "s", INTERVAL, (IntervalEvent(0, 5), IntervalEvent(5, 9), IntervalEvent(30, 60))
        )
        cpd = encode_cpd(points_from_intervals(ev), 60, spec)
        regression = encode_regression(ev, 60, spec)
        np.testing.assert_array_equal(cpd.channels[0], regression.channels[0])
        assert cpd.gamma == regression.gamma


class TestEncodeSegmentation:
    def test_labels_and_gamma(self):
        ev = EventSet("s", INTERVAL, (IntervalEvent(2, 5),))
        ts = encode_segmentation(ev, 8)
        assert ts.gamma == 1.0
        assert ts.channels.tolist() == [[0, 0, 1, 1, 1, 0, 0, 0]]


class TestSigmaSchedule:
    def test_endpoints(self):
        assert sigma_schedule(0, 10, 40.0, 10.0) == 40.0
        assert sigma_schedule(10, 10, 40.0, 10.0) == 10.0

    def test_midpoint(self):
        assert sigma_schedule(5, 10, 50.0, 10.0) == pytest.approx(30.0)

    def test_out_of_range_epoch(self):
        with pytest.raises(InvalidRange):
            sigma_schedule(11, 10, 40.0, 10.0)

    def test_bad_sigma_order(self):
        with pytest.raises(InvalidRange):
            sigma_schedule(0, 10, 10.0, 40.0)
