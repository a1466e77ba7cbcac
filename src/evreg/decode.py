"""Decoders that turn model output channels into scored events.

Three post-processing routes are provided: peak picking on regressed
density channels, threshold crossings of the smoothed class-1 probability,
and peak picking on the windowed contrast I of that probability.  Both peak
routes read only the indices find_peaks keeps (signal._spaced_peaks), never
its heights or prominences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidProbability, InvalidSpec, LengthMismatch
# find_peaks is not called here since every decoder picks indices only, but
# perfbench's tests read it as decode.find_peaks
from .signal import (  # noqa: F401
    SmoothingParams,
    WindowParams,
    _check_finite_1d,
    _spaced_peaks,
    check_min_height,
    find_peaks,
    gaussian_smooth,
    window_convolve,
)
from .types import ScoredEvents


@dataclass(frozen=True)
class DecodeParams:
    """Post-processing knobs shared by all decoders.

    alpha doubles as the minimum peak spacing and the contrast half-window.
    mu is the class threshold (threshold decoder only).  sigma smooths the
    channel before peak finding or crossing detection; None disables it.
    min_height optionally gates regression peaks by smoothed-channel height.
    """

    alpha: int
    mu: float = 0.5
    sigma: float | None = None
    min_height: float | None = None

    def __post_init__(self):
        WindowParams(self.alpha)
        SmoothingParams(self.sigma)
        if not (np.isfinite(self.mu) and 0.0 <= self.mu <= 1.0):
            raise InvalidSpec(f"mu={self.mu}, expected in [0, 1]")
        check_min_height(self.min_height)


def _pick_channel(y: np.ndarray, params: DecodeParams) -> tuple[tuple[int, float], ...]:
    """Peaks of the smoothed channel (find_peaks indices), scored by the raw
    channel value."""
    smoothed = _check_finite_1d(gaussian_smooth(y, SmoothingParams(params.sigma)), "x")
    kept = _spaced_peaks(smoothed, params.alpha, params.min_height)
    return tuple(zip(kept, y[kept].tolist()))


def decode_regression(
    y_on: np.ndarray, y_off: np.ndarray, params: DecodeParams
) -> ScoredEvents:
    """Peak-pick two regressed density channels into scored onsets/offsets.

    Peaks are located on the smoothed channels with spacing >= alpha, but
    each detection keeps the unsmoothed channel value at the peak index as
    its score (the smoothing is for localization only).
    """
    y_on = np.asarray(y_on, dtype=np.float64)
    y_off = np.asarray(y_off, dtype=np.float64)
    if y_on.shape != y_off.shape:
        raise LengthMismatch(
            f"onset/offset channels differ in shape: {y_on.shape} vs {y_off.shape}"
        )
    return ScoredEvents(
        onsets=_pick_channel(y_on, params),
        offsets=_pick_channel(y_off, params),
    )


def decode_points(y: np.ndarray, params: DecodeParams) -> ScoredEvents:
    """Peak-pick one regressed density channel into scored point detections.

    Point detections occupy the onsets slot of the result; offsets stay
    empty.  Scoring follows decode_regression: localization on the smoothed
    channel, score from the raw value at the peak.
    """
    y = np.asarray(y, dtype=np.float64)
    return ScoredEvents(onsets=_pick_channel(y, params))


def _check_probability(y: np.ndarray) -> np.ndarray:
    arr = np.asarray(y, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidSpec(f"probability sequence must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise InvalidProbability("probabilities must be finite and within [0, 1]")
    return arr


def decode_seg_threshold(y: np.ndarray, params: DecodeParams) -> ScoredEvents:
    """Threshold crossings of the smoothed class-1 probability.

    An onset fires at t when smoothed[t-1] < mu and smoothed[t] > mu, an
    offset at the mirrored downward crossing; equality with mu never fires
    (a touch is not a crossing).  Scores are |I[t]| with I the windowed
    contrast of the smoothed probability.  A sequence already above mu at
    t=0 yields no synthetic onset.
    """
    return sweep_seg_threshold(y, (params.mu,), params)[0]


def sweep_seg_threshold(y: np.ndarray, mus: tuple, params: DecodeParams) -> list[ScoredEvents]:
    """decode_seg_threshold at each mu in mus (params.mu is unread), smoothing y once."""
    arr = _check_probability(y)
    smoothed = gaussian_smooth(arr, SmoothingParams(params.sigma))
    score = np.abs(window_convolve(smoothed, WindowParams(params.alpha)))
    before, after = smoothed[:-1], smoothed[1:]
    out = []
    for mu in mus:
        up = np.flatnonzero((before < mu) & (after > mu)) + 1
        down = np.flatnonzero((before > mu) & (after < mu)) + 1
        out.append(ScoredEvents(
            onsets=list(zip(up.tolist(), score[up].tolist())),
            offsets=list(zip(down.tolist(), score[down].tolist())),
        ))
    return out


def decode_seg_peaks(y: np.ndarray, params: DecodeParams) -> ScoredEvents:
    """Extrema of the windowed contrast of the smoothed probability.

    Onsets are peaks of I, offsets are peaks of -I, both at find_peaks
    indices with spacing >= alpha; scores are |I| at the peak.  mu is unused
    by this decoder.
    """
    arr = _check_probability(y)
    smoothed = gaussian_smooth(arr, SmoothingParams(params.sigma))
    contrast = window_convolve(smoothed, WindowParams(params.alpha))
    score = np.abs(contrast)
    onsets = _spaced_peaks(contrast, params.alpha, None)
    offsets = _spaced_peaks(-contrast, params.alpha, None)
    return ScoredEvents(
        onsets=tuple(zip(onsets, score[onsets].tolist())),
        offsets=tuple(zip(offsets, score[offsets].tolist())),
    )
