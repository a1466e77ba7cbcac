"""1-D signal primitives: Gaussian smoothing, peak finding, window contrast.

These are written against exact conventions the rest of the package relies
on (kernel radius, reflection padding, plateau and tie handling), so they
are implemented here rather than delegated to a library.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidSpec, NonFiniteInput


@dataclass(frozen=True)
class SmoothingParams:
    """Gaussian smoothing configuration.

    sigma is the kernel standard deviation in steps; None (or 0) disables
    smoothing.  The kernel radius is ceil(4 * sigma).
    """

    sigma: float | None = None

    def __post_init__(self):
        if self.sigma is not None:
            if not (np.isfinite(self.sigma) and self.sigma >= 0):
                raise InvalidSpec(f"sigma={self.sigma}, expected nonnegative or None")


@dataclass(frozen=True)
class WindowParams:
    """Symmetric contrast window half-width (alpha steps on each side)."""

    alpha: int

    def __post_init__(self):
        _check_spacing(self.alpha, "alpha")


# largest (peaks x samples) mask find_peaks builds at once
_MASK_CELLS = 1 << 20


class Peak(NamedTuple):
    index: int
    height: float
    prominence: float


def _check_spacing(value, name: str) -> None:
    """InvalidSpec unless value is an integer >= 1 that is not a bool."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1):
        raise InvalidSpec(f"{name}={value}, expected integer >= 1")


def _check_finite_1d(x: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidSpec(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput(f"{name} contains NaN or Inf")
    return arr


def gaussian_taps(k: np.ndarray, sigma: float) -> np.ndarray:
    """Unit-peak Gaussian exp(-k^2 / (2 sigma^2)) at the float offsets k.

    A zero or subnormal 2 sigma^2 gave 0/0 or overflow; floored at the
    smallest normal float, it leaves the single unit tap at k = 0, and a
    quotient past the float range is -inf, whose tap is 0.
    """
    with np.errstate(over="ignore"):
        return np.exp(-(k * k) / max(2.0 * sigma * sigma, np.finfo(np.float64).tiny))


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized Gaussian taps for |k| <= ceil(4 sigma)."""
    radius = int(math.ceil(4.0 * sigma))
    kernel = gaussian_taps(np.arange(-radius, radius + 1, dtype=np.float64), sigma)
    return kernel / kernel.sum()


@functools.lru_cache(maxsize=64)
def _folded_kernel(sigma: float, n: int) -> tuple[int, np.ndarray]:
    """The radius of gaussian_kernel(sigma) and its taps folded onto one 2n
    period, read-only.

    Tap k reads the symmetric extension at offset k - radius, which repeats
    every 2n samples, so taps k and k + 2n read the same sample: the folded
    kernel sums them.  It holds min(2 radius + 1, 2n) taps and equals the
    kernel, bit for bit, when that kernel fits in one period.
    """
    kernel = gaussian_kernel(sigma)
    folded = np.bincount(np.arange(len(kernel)) % (2 * n), weights=kernel)
    folded.flags.writeable = False
    return (len(kernel) - 1) // 2, folded


def gaussian_smooth(x: np.ndarray, params: SmoothingParams) -> np.ndarray:
    """Convolve x with a normalized Gaussian under reflected boundaries.

    The reflection mirrors without repeating the edge sample's position
    (pad of [a, b, c, ...] starts [b, a | a, b, c ...] -- numpy 'symmetric'),
    so constant inputs are preserved exactly up to rounding.  sigma None or 0,
    or an empty x, returns an unchanged copy.

    The reflected series repeats every 2n samples, so the kernel is folded
    onto one period first (_folded_kernel) and each output costs at most 2n
    products, whatever sigma is.  A kernel of 2 ceil(4 sigma) + 1 <= 2n taps
    is not folded: the output is then the bits of np.correlate on the padded
    series.  A wider kernel sums its taps per period before it meets the
    samples, which reassociates the sums: the result may differ from the
    unfolded sum in its last bits.
    """
    arr = _check_finite_1d(x, "x")
    if params.sigma is None or params.sigma == 0 or arr.size == 0:
        return arr.copy()
    n = len(arr)
    radius, taps = _folded_kernel(float(params.sigma), n)
    # the n + len(taps) - 1 samples of the symmetric extension from -radius on
    j = np.arange(-radius, n - radius + len(taps) - 1) % (2 * n)
    return np.correlate(arr[np.minimum(j, 2 * n - 1 - j)], taps, mode="valid")


def check_min_height(min_height) -> None:
    """InvalidSpec unless min_height is None or a finite number."""
    try:
        finite = min_height is None or math.isfinite(min_height)
    except TypeError:
        finite = False
    if not finite:
        raise InvalidSpec(f"min_height={min_height}, expected finite or None")


def _spaced_peaks(arr: np.ndarray, min_distance: int, min_height: float | None) -> list[int]:
    """Ascending indices of the peaks find_peaks keeps in a checked 1-D arr.

    Plateau runs, the min_height gate and the greedy spacing follow
    find_peaks; heights and prominences are not computed.
    """
    n = len(arr)
    if n < 3:
        return []

    # runs of equal samples; a run is a peak when both neighbouring runs are
    # strictly lower, so the first and last runs never are
    starts = np.flatnonzero(np.r_[True, arr[1:] != arr[:-1]])
    ends = np.append(starts[1:] - 1, n - 1)
    vals = arr[starts]
    inner = (vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])
    candidates = (starts[1:-1][inner] + ends[1:-1][inner]) // 2

    if min_height is not None:
        candidates = candidates[arr[candidates] >= min_height]

    # kept stays sorted, so only the two kept peaks around c can be too close
    kept: list[int] = []
    for c in candidates[np.lexsort((candidates, -arr[candidates]))].tolist():
        pos = bisect.bisect_left(kept, c)
        if (pos == 0 or c - kept[pos - 1] >= min_distance) and (
            pos == len(kept) or kept[pos] - c >= min_distance
        ):
            kept.insert(pos, c)
    return kept


def find_peaks(
    x: np.ndarray,
    min_distance: int = 1,
    min_height: float | None = None,
) -> list[Peak]:
    """Locate strict local maxima with plateau, height, and spacing rules.

    A peak is a run of equal samples with strictly lower neighbors on both
    sides; its index is the run midpoint floor((first + last) / 2).  Runs
    touching either boundary are not peaks.  Candidates below min_height are
    dropped, then peaks are kept greedily in order of descending height
    (ties: ascending index) subject to pairwise spacing >= min_distance.
    Prominence is measured on the surviving peaks: descend on each side
    until a strictly higher sample or the boundary, take the minimum sample
    over each descent, and subtract the higher of the two minima from the
    peak height.  Boundaries act as valleys.

    min_distance must be an integer >= 1 (not a bool) and min_height finite
    or None, else InvalidSpec.  Returns peaks ordered by ascending index.
    """
    arr = _check_finite_1d(x, "x")
    _check_spacing(min_distance, "min_distance")
    check_min_height(min_height)
    kept = _spaced_peaks(arr, min_distance, min_height)
    if not kept:
        return []

    n = len(arr)
    peaks = np.array(kept, dtype=np.intp)
    heights = arr[peaks]
    # each descent runs from the peak to the nearest strictly higher sample
    # on that side (exclusive), or to the boundary; the (peaks, n) masks are
    # taken in blocks of rows so that long series stay in bounded memory
    lo = np.empty_like(peaks)
    hi = np.empty_like(peaks)
    index = np.arange(n)
    rows = max(1, _MASK_CELLS // n)
    for b in range(0, len(peaks), rows):
        p = peaks[b : b + rows, None]
        higher = arr > heights[b : b + rows, None]
        left = higher & (index < p)
        right = higher & (index > p)
        lo[b : b + rows] = np.where(left.any(axis=1), n - np.argmax(left[:, ::-1], axis=1), 0)
        hi[b : b + rows] = np.where(right.any(axis=1), np.argmax(right, axis=1), n)
    # minima over arr[lo : peak + 1] and arr[peak : hi]; the odd segments
    # in between are discarded, and the appended sample makes hi == n valid
    bounds = np.column_stack((lo, peaks + 1, peaks, hi)).ravel()
    minima = np.minimum.reduceat(np.append(arr, np.inf), bounds)
    prominences = heights - np.maximum(minima[0::4], minima[2::4])
    return [
        Peak(c, h, p)
        for c, h, p in zip(kept, heights.tolist(), prominences.tolist())
    ]


def window_convolve(x: np.ndarray, params: WindowParams) -> np.ndarray:
    """Mean of the alpha steps after t minus the mean of the alpha before.

    The center sample x[t] belongs to neither window.  The series is padded
    with its edge values, so the output has the input's length and windows
    near the boundary lean on replicated edge samples.  Exactly antisymmetric
    under negation of x, exactly zero on constant input, and empty on empty x.
    """
    arr = _check_finite_1d(x, "x")
    if arr.size == 0:
        return arr.copy()
    a = params.alpha
    padded = np.pad(arr, a, mode="edge")
    # sliding sums of length-a windows; index i covers padded[i : i + a]
    sums = np.convolve(padded, np.ones(a, dtype=np.float64), mode="valid")
    n = len(arr)
    after = sums[a + 1 : a + 1 + n]
    before = sums[:n]
    return after / a - before / a
