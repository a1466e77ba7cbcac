"""1-D signal primitives: Gaussian smoothing, peak finding, window contrast.

These are written against exact conventions the rest of the package relies
on (kernel radius, reflection padding, plateau and tie handling), so they
are implemented here rather than delegated to a library.
"""

from __future__ import annotations

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
        if not (isinstance(self.alpha, (int, np.integer)) and self.alpha >= 1):
            raise InvalidSpec(f"alpha={self.alpha}, expected integer >= 1")


class Peak(NamedTuple):
    index: int
    height: float
    prominence: float


def _check_finite_1d(x: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidSpec(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput(f"{name} contains NaN or Inf")
    return arr


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized Gaussian taps exp(-k^2 / (2 sigma^2)) for |k| <= ceil(4 sigma)."""
    radius = int(math.ceil(4.0 * sigma))
    k = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(k * k) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


def gaussian_smooth(x: np.ndarray, params: SmoothingParams) -> np.ndarray:
    """Convolve x with a normalized Gaussian under reflected boundaries.

    The reflection mirrors without repeating the edge sample's position
    (pad of [a, b, c, ...] starts [b, a | a, b, c ...] -- numpy 'symmetric'),
    so constant inputs are preserved exactly up to rounding.  sigma None or 0
    returns an unchanged copy.
    """
    arr = _check_finite_1d(x, "x")
    if params.sigma is None or params.sigma == 0:
        return arr.copy()
    kernel = gaussian_kernel(params.sigma)
    radius = (len(kernel) - 1) // 2
    padded = np.pad(arr, radius, mode="symmetric")
    return np.correlate(padded, kernel, mode="valid")


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

    Returns peaks ordered by ascending index.
    """
    arr = _check_finite_1d(x, "x")
    if not (isinstance(min_distance, (int, np.integer)) and min_distance >= 1):
        raise InvalidSpec(f"min_distance={min_distance}, expected integer >= 1")
    n = len(arr)

    candidates: list[int] = []
    i = 1
    while i < n - 1:
        if arr[i] > arr[i - 1]:
            j = i
            while j + 1 < n and arr[j + 1] == arr[i]:
                j += 1
            if j < n - 1 and arr[j + 1] < arr[i]:
                candidates.append((i + j) // 2)
            i = j + 1
        else:
            i += 1

    if min_height is not None:
        candidates = [c for c in candidates if arr[c] >= min_height]

    order = sorted(candidates, key=lambda c: (-arr[c], c))
    kept: list[int] = []
    for c in order:
        if all(abs(c - k) >= min_distance for k in kept):
            kept.append(c)
    kept.sort()

    peaks = []
    for c in kept:
        height = float(arr[c])
        left_min = height
        i = c - 1
        while i >= 0 and arr[i] <= height:
            left_min = min(left_min, float(arr[i]))
            i -= 1
        right_min = height
        i = c + 1
        while i < n and arr[i] <= height:
            right_min = min(right_min, float(arr[i]))
            i += 1
        peaks.append(Peak(int(c), height, height - max(left_min, right_min)))
    return peaks


def window_convolve(x: np.ndarray, params: WindowParams) -> np.ndarray:
    """Mean of the alpha steps after t minus the mean of the alpha before.

    The center sample x[t] belongs to neither window.  The series is padded
    with its edge values, so the output has the input's length and windows
    near the boundary lean on replicated edge samples.  Exactly antisymmetric
    under negation of x, and exactly zero on constant input.
    """
    arr = _check_finite_1d(x, "x")
    a = params.alpha
    padded = np.pad(arr, a, mode="edge")
    # sliding sums of length-a windows; index i covers padded[i : i + a]
    sums = np.convolve(padded, np.ones(a, dtype=np.float64), mode="valid")
    n = len(arr)
    after = sums[a + 1 : a + 1 + n]
    before = sums[:n]
    return after / a - before / a
