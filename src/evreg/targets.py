"""Probability-density regression targets for event boundaries.

Each ground-truth boundary step contributes one unit-peak kernel to a target
channel; overlapping kernels sum and kernels near the edges are truncated
without renormalization.  The summed channel is divided by

    gamma = sqrt( (1/d) * sum_i kernel_i^2 )

where d is the nominal series length the normalization is calibrated for.
With one kernel per d steps this makes the mean squared error of an all-zero
prediction approximately 1, which puts different kernel shapes on a common
loss scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidEvents, InvalidRange, InvalidSpec, ZeroKernel
from .metric import ascending_positive_ints
from .signal import check_fields, expect, gaussian_taps, is_finite_real, real_array, shown
from .types import INTERVAL, POINT, EventSet, derive_state_labels, validate_events

KERNEL_KINDS = ("hard", "gaussian", "edap")


@dataclass(frozen=True)
class PdfSpec:
    """Target kernel specification.

    kind selects the shape: 'hard' is a single unit sample at the boundary,
    'gaussian' is exp(-t^2 / (2 sigma^2)), and 'edap' is a staircase whose
    value at lag t is the fraction of tolerance thresholds >= |t|.
    day_length_d is the nominal length (in steps) carrying one event, used
    only by the normalizer.  width_w is the odd kernel support length.  sigma
    must be None unless kind is 'gaussian', thresholds None unless 'edap'.
    """

    kind: str
    day_length_d: int
    width_w: int
    sigma: float | None = None
    thresholds: tuple[int, ...] | None = None

    def __post_init__(self):
        check_fields(self, InvalidSpec)
        ok = self.kind in KERNEL_KINDS
        expect(ok, "kind", repr(self.kind), f"one of {KERNEL_KINDS}", InvalidSpec)
        # a field the kind does not read would pass unchecked
        unread = f"None for kind {self.kind!r}"
        ok = self.kind == "gaussian" or self.sigma is None
        expect(ok, "sigma", self.sigma, unread, InvalidSpec)
        ok = self.kind == "edap" or self.thresholds is None
        expect(ok, "thresholds", self.thresholds, unread, InvalidSpec)
        ok = self.width_w >= 1 and self.width_w % 2 == 1
        expect(ok, "width_w", self.width_w, "odd and positive", InvalidSpec)
        ok = self.day_length_d >= self.width_w
        expect(ok, "day_length_d", self.day_length_d, ">= width_w", InvalidSpec)
        if self.kind == "gaussian":
            if not (is_finite_real(self.sigma) and self.sigma > 0):
                raise InvalidSpec("gaussian kernel requires positive sigma")
            # 2 ceil(4 sigma) + 1 taps, in ints: 4.0 * sigma can pass the float range
            n, d = float(self.sigma).as_integer_ratio()
            need = 2 * -(-4 * n // d) + 1
            if self.width_w < need:
                raise InvalidSpec(
                    f"width_w={self.width_w} clips the gaussian; need >= {need} "
                    f"for sigma={self.sigma}"
                )
        if self.kind == "edap":
            t = ascending_positive_ints(self.thresholds)
            expected = "ascending distinct positive integer thresholds for an edap kernel"
            expect(t is not None, "thresholds", self.thresholds, expected, InvalidSpec)
            object.__setattr__(self, "thresholds", t)
            if self.width_w < 2 * max(t) + 1:
                raise InvalidSpec(
                    f"width_w={shown(self.width_w)} clips the staircase; need >= "
                    f"{shown(2 * max(t) + 1)}"
                )


@dataclass(frozen=True)
class TargetSeries:
    """Encoded target channels (num_channels, num_steps) plus the gamma used."""

    channels: np.ndarray
    gamma: float
    names: tuple[str, ...]

    def __post_init__(self):
        arr = real_array(self.channels, "channels", 2, InvalidSpec)
        if arr.shape[0] != len(self.names):
            raise InvalidSpec(
                f"channels shape {arr.shape} does not match names {self.names}"
            )
        object.__setattr__(self, "channels", arr)


def make_kernel(spec: PdfSpec) -> np.ndarray:
    """Unit-peak kernel of length width_w centered at lag 0."""
    t = np.arange(spec.width_w, dtype=np.int64) - spec.width_w // 2
    if spec.kind == "hard":
        return (t == 0).astype(np.float64)
    if spec.kind == "gaussian":
        return gaussian_taps(t.astype(np.float64), spec.sigma)
    thresholds = np.asarray(spec.thresholds, dtype=np.int64)
    counts = (np.abs(t)[:, None] <= thresholds[None, :]).sum(axis=1)
    return counts.astype(np.float64) / len(thresholds)


def gamma(kernel: np.ndarray, day_length_d: int) -> float:
    """Normalizer sqrt((1/d) * sum(kernel^2)); raises ZeroKernel if degenerate."""
    arr = real_array(kernel, "kernel", 1, InvalidSpec)
    expect(day_length_d >= 1, "day_length_d", day_length_d, ">= 1", InvalidRange)
    energy = float(np.dot(arr, arr))
    if energy == 0.0:
        raise ZeroKernel("kernel has zero energy; gamma is undefined")
    return math.sqrt(energy / day_length_d)


def _add_kernel(channel: np.ndarray, center: int, kernel: np.ndarray) -> None:
    """Add kernel centered at center, truncating whatever falls outside."""
    half = len(kernel) // 2
    n = len(channel)
    lo = center - half
    hi = center + half + 1
    k_lo = max(0, -lo)
    k_hi = len(kernel) - max(0, hi - n)
    if k_lo < k_hi:
        channel[max(0, lo) : min(n, hi)] += kernel[k_lo:k_hi]


def _encode_density(
    events: EventSet, num_steps: int, spec: PdfSpec, classes: tuple[str, ...]
) -> TargetSeries:
    """One normalized density channel per class, a kernel at each of its steps."""
    validate_events(events, num_steps)
    kernel = make_kernel(spec)
    g = gamma(kernel, spec.day_length_d)
    channels = np.zeros((len(classes), num_steps), dtype=np.float64)
    for channel, cls in zip(channels, classes):
        for step in events.by_class(cls):
            _add_kernel(channel, int(step), kernel)  # a checked step may be a float
    channels /= g
    return TargetSeries(channels, g, classes)


def encode_regression(
    events: EventSet, num_steps: int, spec: PdfSpec
) -> TargetSeries:
    """Two normalized density channels: onsets and offsets of interval events.

    An offset equal to num_steps contributes only the kernel half that lands
    inside the series.
    """
    if events.kind != INTERVAL:
        raise InvalidEvents("encode_regression requires interval events")
    return _encode_density(events, num_steps, spec, ("onset", "offset"))


def encode_cpd(events: EventSet, num_steps: int, spec: PdfSpec) -> TargetSeries:
    """Single normalized density channel for point events."""
    if events.kind != POINT:
        raise InvalidEvents("encode_cpd requires point events")
    return _encode_density(events, num_steps, spec, ("point",))


def encode_segmentation(events: EventSet, num_steps: int) -> TargetSeries:
    """Binary per-step state labels packaged as a target (gamma fixed at 1)."""
    labels = derive_state_labels(events, num_steps).astype(np.float64)
    return TargetSeries(labels[None, :], 1.0, ("label",))


def sigma_schedule(
    epoch: int, total_epochs: int, sigma_start: float, sigma_end: float
) -> float:
    """Linear interpolation from sigma_start (epoch 0) to sigma_end (epoch total_epochs).

    fit trains epoch e of E at epoch / total_epochs = e / E, so its last
    epoch (E - 1) stops one step short of sigma_end.
    """
    expect(total_epochs >= 1, "total_epochs", total_epochs, ">= 1", InvalidRange)
    expect(0 <= epoch <= total_epochs, "epoch", epoch, f"in [0, {total_epochs}]", InvalidRange)
    expected = f">= sigma_end={shown(sigma_end)} > 0"
    expect(sigma_start >= sigma_end > 0, "sigma_start", sigma_start, expected, InvalidRange)
    return sigma_start + (sigma_end - sigma_start) * (epoch / total_epochs)
