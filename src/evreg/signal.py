"""1-D signal primitives: Gaussian smoothing, peak finding, window contrast.

These are written against exact conventions the rest of the package relies
on (kernel radius, reflection padding, plateau and tie handling), so they
are implemented here rather than delegated to a library.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
import numbers
import sys
import typing
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import EvregError, InvalidSpec, NonFiniteInput


# Largest kernel radius ceil(4 sigma) SmoothingParams accepts, so sigma <=
# 2**18.  _folded_kernel builds all 2 radius + 1 taps before it folds them:
# at this bound, 16 MiB of float64 taps and as much again in indices.
MAX_SMOOTHING_RADIUS = 1 << 20


@dataclass(frozen=True)
class SmoothingParams:
    """Gaussian smoothing configuration.

    sigma is the kernel standard deviation in steps; None (or 0) disables
    smoothing.  The kernel radius is ceil(4 * sigma), at most
    MAX_SMOOTHING_RADIUS.
    """

    sigma: float | None = None

    def __post_init__(self):
        if self.sigma is not None:
            # compared, not converted: float() of a huge int overflows
            ok = is_real(self.sigma) and 0 <= self.sigma < math.inf
            expect(ok, "sigma", self.sigma, "nonnegative or None", InvalidSpec)
            # ceil(4 sigma) > R exactly when sigma > R / 4, an exact float
            if self.sigma > MAX_SMOOTHING_RADIUS / 4:
                raise InvalidSpec(
                    f"sigma={shown(self.sigma)}: kernel radius ceil(4 sigma) exceeds "
                    f"MAX_SMOOTHING_RADIUS={MAX_SMOOTHING_RADIUS}"
                )


@dataclass(frozen=True)
class WindowParams:
    """Symmetric contrast window half-width (alpha steps on each side)."""

    alpha: int

    def __post_init__(self):
        ok = is_int(self.alpha) and self.alpha >= 1
        expect(ok, "alpha", self.alpha, "integer >= 1", InvalidSpec)


class Peak(NamedTuple):
    index: int
    height: float
    prominence: float


def is_real(value) -> bool:
    """True for a real number (numbers.Real) that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def is_int(value) -> bool:
    """True for an int or a numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """is_real and within the float range, compared as a Python number:
    float() of a huge int overflows, and the range overflows a float32."""
    value = value.item() if isinstance(value, np.generic) else value
    return is_real(value) and -sys.float_info.max <= value <= sys.float_info.max


def shown(value, text: Callable[[object], str] = str) -> str:
    """text(value) for an error message, or a short form such as <int of 16610
    bits> where it raises ValueError, as past Python's 4300-digit str limit."""
    try:
        return text(value)
    except ValueError:
        size = f" of {value.bit_length()} bits" if isinstance(value, int) else ""
        return f"<{type(value).__name__}{size}>"


def expect(ok: bool, name: str, value, expected: str, error: type[EvregError]) -> None:
    """error("name=value, expected ...") unless ok.  ok is the caller's test,
    so it must only compare a value whose type is already known."""
    if not ok:
        raise error(f"{name}={shown(value)}, expected {expected}")


# the test of each annotation check_fields reads, and the message of a value
# that fails it, formatted with the field name and shown(value, repr)
_TYPE_RULES: dict[type, tuple[Callable[[object], bool], str]] = {
    int: (is_int, "{}: {} is not an int"),
    float: (is_real, "{}: {} is not a real number"),
    str: (lambda value: isinstance(value, str), "{}: expected a string, got {}"),
}


def check_int(name: str, value, error: type[EvregError]) -> None:
    """error unless value is_int: the rule of an int annotation."""
    if not is_int(value):
        raise error(_TYPE_RULES[int][1].format(name, shown(value, repr)))


@functools.cache
def _field_rules(cls: type) -> tuple[tuple[str, bool, Callable[[object], bool], str], ...]:
    """(name, takes None, test, message) of each field of the dataclass cls
    annotated int, float, str, a dataclass, or a union of these with None."""
    rules = []
    for name, hint in typing.get_type_hints(cls).items():
        kinds = (hint,) if typing.get_origin(hint) is tuple else typing.get_args(hint) or (hint,)
        present = tuple(kind for kind in kinds if kind is not type(None))
        takes_none = present != kinds
        if len(present) == 1 and present[0] in _TYPE_RULES:
            rules.append((name, takes_none, *_TYPE_RULES[present[0]]))
        elif all(map(dataclasses.is_dataclass, present)):
            names = " or ".join("None" if k is type(None) else k.__name__ for k in kinds)
            test = lambda value, present=present: isinstance(value, present)
            rules.append((name, takes_none, test, f"{{}}: expected {names}, got {{}}"))
        # a tuple field is left to its record
    return tuple(rules)


def check_fields(record, error: type[EvregError]) -> None:
    """error naming the first field of record whose value fails the rule of
    its annotation (_field_rules); the rules are read once per class."""
    for name, takes_none, test, message in _field_rules(type(record)):
        value = getattr(record, name)
        if not (takes_none and value is None or test(value)):
            raise error(message.format(name, shown(value, repr)))


def real_array(x, name: str, ndim: int | None, error: type[EvregError]) -> np.ndarray:
    """x as a float64 array, the one gate of every array a caller hands in; a
    float64 array comes back as itself.  error("{name} must hold real numbers")
    if float64 cannot hold x, and error("{name} must be {ndim}-D, got shape
    ...") for another number of dimensions unless ndim is None."""
    try:
        # as float64, a complex value would keep its real part and only warn
        arr = None if np.iscomplexobj(x) else np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None:
        raise error(f"{name} must hold real numbers")
    if ndim is not None and arr.ndim != ndim:
        raise error(f"{name} must be {ndim}-D, got shape {arr.shape}")
    return arr


def _check_finite_1d(x: np.ndarray, name: str) -> np.ndarray:
    arr = real_array(x, name, 1, InvalidSpec)
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


# Priority rounds _spaced_peaks runs before its sequential loop decides the
# rest.  A round settles every candidate that outranks its undecided
# neighbours, which on decoded outputs is nearly all of them within a few
# rounds; but a staircase of rising peaks settles only its top one per round,
# and rounds past a handful cost more than the loop they would save.
_SPACING_ROUNDS = 8


def _spaced_peaks(arr: np.ndarray, min_distance: int, min_height: float | None) -> np.ndarray:
    """Ascending flat indices of the peaks find_peaks keeps in each row of a
    checked 2-D arr (row r's are those in [r n, (r + 1) n)).

    Plateau runs, the min_height gate and the greedy spacing follow
    find_peaks row by row; heights and prominences are not computed.
    """
    n = arr.shape[1]
    if n < 3 or not arr.size:
        return np.empty(0, dtype=np.intp)
    # any spacing of n or more keeps one peak per row; a larger one would
    # overflow the intp positions below
    min_distance = min(min_distance, n)
    flat = arr.ravel()

    # runs of equal samples, each within one row; a run is a peak when both
    # neighbouring runs of its row are strictly lower, so the first and last
    # runs of a row never are
    new_run = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=new_run[1:])
    new_run[::n] = True
    starts = np.flatnonzero(new_run)
    vals = flat[starts]
    peak = np.flatnonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])) + 1
    first, last = starts[peak], starts[peak + 1] - 1
    inside = (first % n != 0) & (last % n != n - 1)
    candidates = (first[inside] + last[inside]) // 2

    if min_height is not None:
        candidates = candidates[flat[candidates] >= min_height]

    # Greedy spacing takes candidates by height descending, then index
    # ascending, and keeps each unless a kept one lies within min_distance.
    # pos shifts each row min_distance past the one before, so candidates
    # of different rows are never within reach of each other.
    heights = flat[candidates]
    pos = candidates + candidates // n * min_distance
    kept = np.zeros(len(candidates), dtype=bool)
    # A round keeps each undecided candidate that outranks every undecided
    # one within reach, and drops the undecided within reach of those it
    # keeps.  The sequential order would have decided them the same way, and
    # no kept candidate is then within reach of an undecided one.
    undecided = np.arange(len(candidates))
    for _ in range(_SPACING_ROUNDS):
        if not undecided.size:
            break
        p, h = pos[undecided], heights[undecided]
        best = np.ones(len(p), dtype=bool)
        reach = []
        # the pairs k apart in pos order, the earlier outranking the later on
        # a tie; once none of them is within reach, no pair further apart is
        for k in range(1, len(p)):
            close = p[k:] - p[:-k] < min_distance
            if not close.any():
                break
            best[:-k] &= ~close | (h[:-k] >= h[k:])
            best[k:] &= ~close | (h[k:] > h[:-k])
            reach.append(close)
        decided = best.copy()
        for k, close in enumerate(reach, 1):
            decided[k:] |= close & best[:-k]
            decided[:-k] |= close & best[k:]
        kept[undecided[best]] = True
        undecided = undecided[~decided]

    # the sequential loop over what the rounds left undecided; its kept list
    # stays sorted, so only the two kept around c can be too close
    done: list[int] = []
    for c in pos[undecided[np.argsort(-heights[undecided], kind="stable")]].tolist():
        at = bisect.bisect_left(done, c)
        if (at == 0 or c - done[at - 1] >= min_distance) and (
            at == len(done) or done[at] - c >= min_distance
        ):
            done.insert(at, c)
    kept[np.searchsorted(pos, done)] = True
    return candidates[kept]


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

    min_distance must be an integer >= 1 and min_height finite or None,
    neither of them a bool, else InvalidSpec.  Returns peaks ordered by
    ascending index.
    """
    arr = _check_finite_1d(x, "x")
    ok = is_int(min_distance) and min_distance >= 1
    expect(ok, "min_distance", min_distance, "integer >= 1", InvalidSpec)
    ok = min_height is None or is_finite_real(min_height)
    expect(ok, "min_height", min_height, "finite or None", InvalidSpec)
    peaks = _spaced_peaks(arr[None], min_distance, min_height)
    out = []
    for c, h in zip(peaks.tolist(), arr[peaks].tolist()):
        # left reads the samples before c backwards; a peak is never at 0
        left, right = arr[c - 1 :: -1] > h, arr[c + 1 :] > h
        lo = c - left.argmax() if left.any() else 0
        hi = c + 1 + right.argmax() if right.any() else len(arr)
        out.append(Peak(c, h, float(h - max(arr[lo : c + 1].min(), arr[c:hi].min()))))
    return out


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
    # edge padding, built directly: np.pad's general path costs about as much
    # as the convolution on a row
    padded = np.concatenate((np.full(a, arr[0]), arr, np.full(a, arr[-1])))
    # sliding sums of length-a windows; index i covers padded[i : i + a]
    sums = np.convolve(padded, np.ones(a, dtype=np.float64), mode="valid")
    n = len(arr)
    after = sums[a + 1 : a + 1 + n]
    before = sums[:n]
    return after / a - before / a
