import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import brute_force_peaks, dense_smooth_oracle, window_contrast_oracle
from evreg import signal
from evreg.errors import InvalidSpec, NonFiniteInput
from evreg.config import DEFAULT_GRID_SIGMA
from evreg.signal import (
    MAX_SMOOTHING_RADIUS,
    Peak,
    _folded_kernel,
    _spaced_peaks,
    SmoothingParams,
    WindowParams,
    find_peaks,
    gaussian_kernel,
    gaussian_smooth,
    window_convolve,
)


class TestGaussianSmooth:
    def test_sigma_none_is_identity(self):
        x = np.array([1.0, -2.0, 3.5])
        out = gaussian_smooth(x, SmoothingParams(sigma=None))
        np.testing.assert_array_equal(out, x)
        assert out is not x  # a copy, not the same buffer

    @pytest.mark.parametrize("sigma", ["x", True, np.True_, float("nan"), -1.0, [1.0]])
    def test_sigma_must_be_a_nonnegative_number(self, sigma):
        with pytest.raises(InvalidSpec, match="sigma=.*expected nonnegative or None"):
            SmoothingParams(sigma)

    def test_sigma_radius_is_bounded_before_any_kernel_is_built(self):
        # 4 sigma is exact, so sigma = R / 4 has radius R, the largest allowed
        SmoothingParams(MAX_SMOOTHING_RADIUS / 4)
        tracemalloc.start()
        try:
            for sigma in (np.nextafter(MAX_SMOOTHING_RADIUS / 4, np.inf), 1e8, 1e308, 10**400):
                with pytest.raises(InvalidSpec, match="exceeds MAX_SMOOTHING_RADIUS"):
                    SmoothingParams(sigma)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_sigma_zero_is_identity(self):
        x = np.array([1.0, -2.0, 3.5])
        np.testing.assert_array_equal(gaussian_smooth(x, SmoothingParams(sigma=0)), x)

    def test_constant_preserved(self):
        x = np.full(50, 3.7)
        out = gaussian_smooth(x, SmoothingParams(sigma=4.0))
        np.testing.assert_allclose(out, x, rtol=1e-12)

    def test_impulse_reproduces_kernel(self):
        x = np.zeros(21)
        x[10] = 1.0
        out = gaussian_smooth(x, SmoothingParams(sigma=1.0))
        k = np.arange(-4, 5, dtype=float)
        kernel = np.exp(-(k**2) / 2.0)
        kernel /= kernel.sum()
        np.testing.assert_allclose(out[6:15], kernel, atol=1e-15)
        assert out[:6].max() == 0.0 and out[15:].max() == 0.0

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 5.0, 20.0])
    @pytest.mark.parametrize("n", [3, 7, 64, 257])
    def test_matches_dense_oracle(self, sigma, n):
        rng = np.random.default_rng(hash((sigma, n)) % 2**32)
        x = rng.normal(size=n) * 10
        out = gaussian_smooth(x, SmoothingParams(sigma=sigma))
        np.testing.assert_allclose(out, dense_smooth_oracle(x, sigma), atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        p = SmoothingParams(sigma=3.0)
        lhs = gaussian_smooth(2.5 * x - 1.25 * y, p)
        rhs = 2.5 * gaussian_smooth(x, p) - 1.25 * gaussian_smooth(y, p)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_sum_preserved_for_interior_support(self):
        x = np.zeros(400)
        x[150:250] = np.random.default_rng(3).normal(size=100)
        out = gaussian_smooth(x, SmoothingParams(sigma=5.0))
        np.testing.assert_allclose(out.sum(), x.sum(), rtol=1e-9)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            gaussian_smooth(np.array([1.0, np.nan]), SmoothingParams(sigma=1.0))

    def test_bad_params(self):
        with pytest.raises(InvalidSpec):
            SmoothingParams(sigma=-1.0)

    def test_empty_input(self):
        out = gaussian_smooth(np.array([]), SmoothingParams(sigma=2.0))
        assert out.shape == (0,) and out.dtype == np.float64

    @pytest.mark.parametrize("sigma", [1e-200, 1e-160])
    def test_tiny_sigma_is_identity_without_warnings(self, sigma):
        # 2 sigma^2 is 0 or subnormal here: the taps were 0/0 (NaN) or overflowed
        x = np.random.default_rng(8).normal(size=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = gaussian_kernel(sigma)
            out = gaussian_smooth(x, SmoothingParams(sigma=sigma))
        assert kernel.tolist() == [0.0, 1.0, 0.0]
        assert out.tobytes() == x.tobytes()

    @pytest.mark.parametrize(
        "sigma", [s for s in DEFAULT_GRID_SIGMA if s is not None] + [0.3, 2.0, 7.5, 1e-150]
    )
    def test_kernel_bits_unchanged_where_two_sigma_squared_is_normal(self, sigma):
        radius = int(math.ceil(4.0 * sigma))
        k = np.arange(-radius, radius + 1, dtype=np.float64)
        kernel = np.exp(-(k * k) / (2.0 * sigma * sigma))
        assert gaussian_kernel(sigma).tobytes() == (kernel / kernel.sum()).tobytes()

    @given(
        st.lists(st.floats(-100, 100), min_size=3, max_size=60),
        st.sampled_from([0.5, 1.0, 2.5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_oracle_property(self, values, sigma):
        x = np.array(values)
        out = gaussian_smooth(x, SmoothingParams(sigma=sigma))
        np.testing.assert_allclose(out, dense_smooth_oracle(x, sigma), atol=1e-9)


def padded_correlate(x, sigma):
    """gaussian_smooth before the fold: np.pad 'symmetric', then np.correlate."""
    kernel = gaussian_kernel(sigma)
    radius = (len(kernel) - 1) // 2
    return np.correlate(np.pad(x, radius, mode="symmetric"), kernel, mode="valid")


def unfolded_smooth(x, sigma):
    """Direct sum over every tap of the unfolded kernel, one dot per output.

    The same sum as dense_smooth_oracle with the reflection done by array
    ops: that loop oracle steps through the reflection one period at a time,
    which takes about half a minute at radius 20,000 on 3 samples.
    """
    n = len(x)
    radius = math.ceil(4.0 * sigma)
    lags = np.arange(-radius, radius + 1)
    weights = np.exp(-(lags * lags) / (2.0 * sigma * sigma))
    weights /= weights.sum()
    out = np.empty(n)
    for t in range(n):
        j = (t + lags) % (2 * n)
        out[t] = weights @ x[np.minimum(j, 2 * n - 1 - j)]
    return out


# a Gaussian of radius r has 2r + 1 taps, which fit in one 2n period of the
# reflected series when n >= r + 1
_NARROW = st.floats(0.01, 12.0).flatmap(
    lambda sigma: st.tuples(
        st.just(sigma),
        st.lists(
            st.floats(-100, 100),
            min_size=math.ceil(4.0 * sigma) + 1,
            max_size=math.ceil(4.0 * sigma) + 40,
        ),
    )
)


class TestFoldedSmoothing:
    """The kernel folded onto one period of the reflected series."""

    @given(_NARROW)
    @settings(max_examples=300, deadline=None)
    def test_narrow_kernels_are_the_padded_correlation_bit_for_bit(self, case):
        sigma, values = case
        x = np.array(values)
        assert 2 * math.ceil(4.0 * sigma) + 1 <= 2 * len(x)
        got = gaussian_smooth(x, SmoothingParams(sigma=sigma))
        assert got.tobytes() == padded_correlate(x, sigma).tobytes()

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=12), st.floats(1.5, 60.0))
    @settings(max_examples=100, deadline=None)
    def test_wide_kernels_match_the_unfolded_sum(self, values, sigma):
        x = np.array(values)
        assume(2 * math.ceil(4.0 * sigma) + 1 > 2 * len(x))
        got = gaussian_smooth(x, SmoothingParams(sigma=sigma))
        want = unfolded_smooth(x, sigma)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(np.abs(x).max(), 1e-300))

    @pytest.mark.parametrize("n", [1, 2, 3, 512])
    @pytest.mark.parametrize("sigma", [100.0, 1000.0, 5000.0])
    def test_wide_kernels_against_direct_sums(self, n, sigma):
        rng = np.random.default_rng(n * 7 + int(sigma))
        x = rng.normal(size=n) * 10
        got = gaussian_smooth(x, SmoothingParams(sigma=sigma))
        bound = 1e-12 * np.abs(x).max()
        np.testing.assert_allclose(got, unfolded_smooth(x, sigma), rtol=0, atol=bound)
        if sigma == 100.0:
            # the loop oracle takes O(radius / n) steps per reflected tap, so
            # it is run only at the smallest radius (400)
            np.testing.assert_allclose(got, dense_smooth_oracle(x, sigma), rtol=0, atol=bound)

    @pytest.mark.parametrize("sigma,n", [(1.0, 4), (1.0, 5), (1000.0, 512), (5000.0, 3)])
    def test_folded_taps(self, sigma, n):
        kernel = gaussian_kernel(sigma)
        radius, taps = _folded_kernel(sigma, n)
        assert radius == math.ceil(4.0 * sigma)
        assert len(taps) == min(len(kernel), 2 * n)
        np.testing.assert_allclose(taps.sum(), 1.0, rtol=1e-12)
        if len(kernel) <= 2 * n:
            assert taps.tobytes() == kernel.tobytes()

    def test_cached_taps_are_read_only(self):
        _, taps = _folded_kernel(1000.0, 512)
        assert _folded_kernel(1000.0, 512)[1] is taps
        assert not taps.flags.writeable
        with pytest.raises(ValueError):
            taps[0] = 1.0

    @pytest.mark.parametrize("sigma", [1, 1.0, np.float64(1.0), 1000, np.float64(1000.0)])
    def test_repeated_calls_give_the_same_bytes(self, sigma):
        x = np.random.default_rng(13).normal(size=512)
        first = gaussian_smooth(x, SmoothingParams(sigma=sigma))
        want = first.tobytes()
        # the output is the caller's own array, not a view of cached state
        first[:] = 0.0
        for _ in range(3):
            assert gaussian_smooth(x, SmoothingParams(sigma=sigma)).tobytes() == want
        assert gaussian_smooth(x, SmoothingParams(sigma=float(sigma))).tobytes() == want


class TestFindPeaks:
    def test_single_interior_max(self):
        assert find_peaks(np.array([0.0, 1.0, 0.0])) == [Peak(1, 1.0, 1.0)]

    def test_two_separated_maxima(self):
        peaks = find_peaks(np.array([0.0, 2.0, 0.0, 3.0, 0.0]), min_distance=1)
        assert [p.index for p in peaks] == [1, 3]

    def test_plateau_midpoint(self):
        peaks = find_peaks(np.array([0.0, 1.0, 1.0, 0.0]))
        assert [p.index for p in peaks] == [1]

    def test_plateau_midpoint_odd(self):
        peaks = find_peaks(np.array([0.0, 1.0, 1.0, 1.0, 0.0]))
        assert [p.index for p in peaks] == [2]

    def test_edge_plateau_not_a_peak(self):
        assert find_peaks(np.array([1.0, 1.0, 0.0])) == []
        assert find_peaks(np.array([0.0, 1.0, 1.0])) == []
        assert find_peaks(np.array([2.0, 1.0, 0.0])) == []

    def test_min_height_keeps_boundary_value(self):
        x = np.array([0.0, 1.0, 0.0, 2.0, 0.0])
        peaks = find_peaks(x, min_height=1.0)
        assert [p.index for p in peaks] == [1, 3]
        peaks = find_peaks(x, min_height=1.5)
        assert [p.index for p in peaks] == [3]

    def test_distance_suppression_keeps_higher(self):
        x = np.array([0.0, 1.0, 0.0, 2.0, 0.0])
        peaks = find_peaks(x, min_distance=3)
        assert [p.index for p in peaks] == [3]

    def test_distance_tie_prefers_lower_index(self):
        x = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
        peaks = find_peaks(x, min_distance=3)
        assert [p.index for p in peaks] == [1]

    def test_prominence_hand_case(self):
        x = np.array([0.0, 3.0, 1.0, 2.0, 0.0])
        peaks = find_peaks(x)
        assert peaks[0] == Peak(1, 3.0, 3.0)
        assert peaks[1] == Peak(3, 2.0, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            find_peaks(np.array([0.0, np.inf, 0.0]))

    def test_bad_min_distance(self):
        with pytest.raises(InvalidSpec):
            find_peaks(np.zeros(5), min_distance=0)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force_quantized(self, seed):
        # integer-quantized values produce plenty of plateaus and height ties
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 120))
        x = rng.integers(0, 5, size=n).astype(np.float64)
        min_distance = int(rng.integers(1, 8))
        min_height = None if seed % 3 else 2.0
        got = [tuple(p) for p in find_peaks(x, min_distance, min_height)]
        assert got == brute_force_peaks(x, min_distance, min_height)

    @pytest.mark.parametrize("seed", range(30, 45))
    def test_matches_brute_force_continuous(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 300))
        x = rng.normal(size=n)
        min_distance = int(rng.integers(1, 10))
        got = [tuple(p) for p in find_peaks(x, min_distance)]
        assert got == brute_force_peaks(x, min_distance)

    def test_matches_brute_force_long_series(self):
        # over a thousand peaks, with plateaus and tied heights
        x = np.random.default_rng(7).integers(0, 50, size=4000).astype(np.float64)
        got = [tuple(p) for p in find_peaks(x, 1)]
        assert got == brute_force_peaks(x, 1)

    @pytest.mark.parametrize("min_height", [None, 0.0])
    @pytest.mark.parametrize("min_distance", [1, 2, 5])
    def test_short_and_constant_inputs(self, min_distance, min_height):
        short = [
            np.array(values, dtype=np.float64)
            for n in range(4)
            for values in itertools.product([-1.0, 0.0, 1.0], repeat=n)
        ]
        constant = [np.full(n, v) for n in (1, 2, 3, 7, 40) for v in (-1.0, 0.0, 2.5)]
        for x in short + constant:
            got = [tuple(p) for p in find_peaks(x, min_distance, min_height)]
            assert got == brute_force_peaks(x, min_distance, min_height), x

    @given(st.lists(st.integers(0, 4), min_size=2, max_size=40), st.integers(1, 6))
    @settings(max_examples=120, deadline=None)
    def test_brute_force_property(self, values, min_distance):
        x = np.array(values, dtype=np.float64)
        got = [tuple(p) for p in find_peaks(x, min_distance)]
        assert got == brute_force_peaks(x, min_distance)

    @given(
        st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0]), max_size=60),
        st.integers(1, 8),
        st.sampled_from([None, -1.0, -0.0, 0.0, 0.5, 1.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_spaced_peaks_are_find_peaks_indices(self, values, min_distance, min_height):
        # few distinct values: plateaus, height ties and +-0.0 ties are common
        x = np.array(values, dtype=np.float64)
        assert [p.index for p in find_peaks(x, min_distance, min_height)] == _spaced_peaks(
            x[None], min_distance, min_height
        ).tolist()

    @pytest.mark.parametrize(
        "min_height",
        [
            float("nan"), float("inf"), -np.inf, "1", [1.0], True, False, np.True_,
            np.float32("inf"), np.float16("nan"),
        ],
    )
    def test_min_height_must_be_finite_or_none(self, min_height):
        with pytest.raises(InvalidSpec, match="min_height=.*expected finite or None"):
            find_peaks(np.array([0.0, 1.0, 0.0]), 1, min_height)

    @pytest.mark.parametrize("min_height", [np.float32(0.5), np.float16(-1.0), np.int64(0)])
    def test_numpy_min_height_accepted(self, min_height):
        # the float range overflows a float32 or float16 when cast to it
        assert find_peaks(np.array([0.0, 1.0, 0.0]), 1, min_height) == [Peak(1, 1.0, 1.0)]

    @pytest.mark.parametrize("min_distance", [True, False, np.True_, 1.0, 0, -2])
    def test_min_distance_must_be_an_integer_not_a_bool(self, min_distance):
        with pytest.raises(InvalidSpec, match="min_distance="):
            find_peaks(np.array([0.0, 1.0, 0.0]), min_distance)

    def test_numpy_integer_min_distance_and_height(self):
        x = np.array([0.0, 1.0, 0.0, 2.0, 0.0])
        assert find_peaks(x, np.int64(3), np.float64(0.5)) == [Peak(3, 2.0, 2.0)]

    @pytest.mark.parametrize(
        "min_distance", [10**400, 2**63, 2**63 - 1, np.int64(2**63 - 1), np.uint64(2**64 - 1)],
        ids=["10**400", "2**63", "2**63-1", "int64-max", "uint64-max"],
    )
    def test_spacing_past_the_series_keeps_one_peak(self, min_distance):
        x = np.random.default_rng(3).normal(size=64)
        got = [tuple(p) for p in find_peaks(x, min_distance)]
        assert got == [tuple(p) for p in find_peaks(x, len(x))]
        assert got == brute_force_peaks(x, min_distance) and len(got) == 1
        rows = np.stack([x, x[::-1]])
        assert row_peaks(_spaced_peaks(rows, min_distance, None), 2, 64) == brute_force_rows(
            rows, min_distance
        )


def row_peaks(kept, rows: int, n: int) -> list[list[int]]:
    """Flat _spaced_peaks indices as the list of each row's indices."""
    return [[int(k) - r * n for k in kept if r * n <= k < (r + 1) * n] for r in range(rows)]


def brute_force_rows(x, min_distance, min_height=None) -> list[list[int]]:
    return [[c for c, _, _ in brute_force_peaks(row, min_distance, min_height)] for row in x]


class TestSpacedPeaksRows:
    """_spaced_peaks on several rows at once keeps each row's find_peaks indices."""

    @pytest.mark.parametrize("rounds", [0, 1, signal._SPACING_ROUNDS])
    @given(
        st.integers(1, 4).flatmap(lambda rows: st.lists(
            st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0]), min_size=12, max_size=12),
            min_size=rows, max_size=rows,
        )),
        st.integers(1, 9),
        st.sampled_from([None, -0.0, 0.5, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_match_brute_force(self, rounds, rows, min_distance, min_height):
        # few distinct values: plateaus, height ties and +-0.0 ties are
        # common, and with rounds 0 the sequential loop decides every peak
        x = np.array(rows, dtype=np.float64)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(signal, "_SPACING_ROUNDS", rounds)
            kept = _spaced_peaks(x, min_distance, min_height)
        assert row_peaks(kept, *x.shape) == brute_force_rows(x, min_distance, min_height)

    def test_plateau_running_across_a_row_end(self):
        # flat, 2 2 | 2 2 would be one plateau with lower runs on both sides
        x = np.array([[0.0, 1.0, 2.0, 2.0], [2.0, 2.0, 1.0, 0.0]])
        assert _spaced_peaks(x, 1, None).size == 0
        assert brute_force_rows(x, 1) == [[], []]

    def test_row_ending_on_a_rise(self):
        # 3 ends row 0 and row 1 starts lower: the run touches a row end
        x = np.array([[0.0, 2.0, 0.0, 1.0, 3.0], [0.0, 1.0, 0.0, 0.5, 0.0]])
        assert row_peaks(_spaced_peaks(x, 1, None), 2, 5) == [[1], [1, 3]]
        assert brute_force_rows(x, 1) == [[1], [1, 3]]

    def test_min_height_gates_every_row(self):
        x = np.array([[0.0, 0.4, 0.0, 0.6, 0.0], [0.0, 0.7, 0.0, 0.3, 0.0]])
        assert row_peaks(_spaced_peaks(x, 1, 0.5), 2, 5) == [[3], [1]]
        assert brute_force_rows(x, 1, 0.5) == [[3], [1]]

    def test_spacing_never_reaches_across_rows(self):
        # row 1's peak is 3 flat samples after row 0's last, within 6
        x = np.array([[0.0, 1.0, 0.0, 0.0, 0.0, 3.0, 0.0], [0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        assert row_peaks(_spaced_peaks(x, 6, None), 2, 7) == [[5], [1]]

    @pytest.mark.parametrize("rounds", [0, signal._SPACING_ROUNDS, 10**6])
    def test_rising_staircase_beyond_the_round_cap(self, rounds):
        # each round keeps only the highest undecided step of the staircase
        # and drops the two below it, so it needs about a third as many
        # rounds as it has peaks: far more than the cap
        peaks = 30 * signal._SPACING_ROUNDS
        x = np.zeros((2, 2 * peaks + 1))
        x[0, 1::2] = np.arange(peaks)
        x[1, 1::2] = np.arange(peaks)[::-1]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(signal, "_SPACING_ROUNDS", rounds)
            kept = _spaced_peaks(x, 5, None)
        assert row_peaks(kept, *x.shape) == brute_force_rows(x, 5)


class TestWindowConvolve:
    def test_constant_is_exactly_zero(self):
        x = np.full(30, 0.1)  # 0.1 is not exactly representable
        out = window_convolve(x, WindowParams(alpha=4))
        assert np.all(out == 0.0)

    def test_rising_step(self):
        out = window_convolve(np.array([0.0, 0.0, 1.0, 1.0]), WindowParams(alpha=1))
        np.testing.assert_array_equal(out, [0.0, 1.0, 1.0, 0.0])

    def test_falling_step(self):
        out = window_convolve(np.array([1.0, 1.0, 0.0, 0.0]), WindowParams(alpha=1))
        np.testing.assert_array_equal(out, [0.0, -1.0, -1.0, 0.0])

    def test_exact_antisymmetry(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=101)
        p = WindowParams(alpha=7)
        assert np.all(window_convolve(-x, p) == -window_convolve(x, p))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        for alpha in (1, 2, 5, 11):
            x = rng.normal(size=64)
            out = window_convolve(x, WindowParams(alpha=alpha))
            np.testing.assert_allclose(out, window_contrast_oracle(x, alpha), atol=1e-12)

    def test_step_argmax_near_edge(self):
        for alpha in (1, 3, 10):
            x = np.zeros(200)
            x[120:] = 1.0  # clean step up at t=120
            out = window_convolve(x, WindowParams(alpha=alpha))
            assert abs(int(np.argmax(out)) - 120) <= alpha

    def test_bad_alpha(self):
        with pytest.raises(InvalidSpec):
            WindowParams(alpha=0)

    def test_empty_input(self):
        out = window_convolve(np.array([]), WindowParams(alpha=3))
        assert out.shape == (0,) and out.dtype == np.float64

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=50), st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_antisymmetry_property(self, values, alpha):
        x = np.array(values)
        p = WindowParams(alpha=alpha)
        assert np.all(window_convolve(-x, p) == -window_convolve(x, p))
