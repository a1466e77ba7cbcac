"""Decoders that turn model output channels into scored events.

Three post-processing routes are provided: peak picking on regressed
density channels, threshold crossings of the smoothed class-1 probability,
and peak picking on the windowed contrast I of that probability.  Both peak
routes read only the indices find_peaks keeps (signal._spaced_peaks), never
its heights or prominences.

Each decoder has a *_batch form that decodes a list of series; the
one-series decoder is its one-item case.  A peak batch smooths each channel
on its own, then picks the peaks of all channels of one length in a single
_spaced_peaks call.
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
    is_real,
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
    A bool or a non-number in any of them raises InvalidSpec.
    """

    alpha: int
    mu: float = 0.5
    sigma: float | None = None
    min_height: float | None = None

    def __post_init__(self):
        WindowParams(self.alpha)
        SmoothingParams(self.sigma)
        if not (is_real(self.mu) and 0.0 <= self.mu <= 1.0):
            raise InvalidSpec(f"mu={self.mu}, expected in [0, 1]")
        check_min_height(self.min_height)


def _scored_peaks(
    located: list[np.ndarray], scores: list[np.ndarray], min_distance: int, min_height
) -> list[tuple[tuple[int, float], ...]]:
    """(index, score) pairs of the peaks _spaced_peaks keeps in each checked
    1-D row of located, scored by the same row of scores.

    The rows of one length are picked in one _spaced_peaks call.
    """
    out: list[tuple[tuple[int, float], ...]] = [()] * len(located)
    by_length: dict[int, list[int]] = {}
    for i, row in enumerate(located):
        by_length.setdefault(len(row), []).append(i)
    for n, members in by_length.items():
        kept = _spaced_peaks(np.stack([located[i] for i in members]), min_distance, min_height)
        values = np.stack([scores[i] for i in members]).ravel()[kept].tolist()
        steps = (kept % n).tolist()
        bounds = np.searchsorted(kept, np.arange(len(members) + 1) * n).tolist()
        for i, a, b in zip(members, bounds, bounds[1:]):
            out[i] = tuple(zip(steps[a:b], values[a:b]))
    return out


def _pick_channels(
    ys: list[np.ndarray], params: DecodeParams
) -> list[tuple[tuple[int, float], ...]]:
    """Peaks of each smoothed channel (find_peaks indices), scored by the raw
    channel value."""
    smoothing = SmoothingParams(params.sigma)
    located = [_check_finite_1d(gaussian_smooth(y, smoothing), "x") for y in ys]
    return _scored_peaks(located, ys, params.alpha, params.min_height)


def decode_regression_batch(
    ys_on: list[np.ndarray], ys_off: list[np.ndarray], params: DecodeParams
) -> list[ScoredEvents]:
    """decode_regression of each (ys_on[i], ys_off[i]) pair."""
    ys_on = [np.asarray(y, dtype=np.float64) for y in ys_on]
    ys_off = [np.asarray(y, dtype=np.float64) for y in ys_off]
    for y_on, y_off in zip(ys_on, ys_off):
        if y_on.shape != y_off.shape:
            raise LengthMismatch(
                f"onset/offset channels differ in shape: {y_on.shape} vs {y_off.shape}"
            )
    picked = _pick_channels(ys_on + ys_off, params)
    return [
        ScoredEvents(onsets=on, offsets=off)
        for on, off in zip(picked[: len(ys_on)], picked[len(ys_on) :])
    ]


def decode_regression(
    y_on: np.ndarray, y_off: np.ndarray, params: DecodeParams
) -> ScoredEvents:
    """Peak-pick two regressed density channels into scored onsets/offsets.

    Peaks are located on the smoothed channels with spacing >= alpha, but
    each detection keeps the unsmoothed channel value at the peak index as
    its score (the smoothing is for localization only).
    """
    return decode_regression_batch([y_on], [y_off], params)[0]


def decode_points_batch(ys: list[np.ndarray], params: DecodeParams) -> list[ScoredEvents]:
    """decode_points of each channel in ys."""
    picked = _pick_channels([np.asarray(y, dtype=np.float64) for y in ys], params)
    return [ScoredEvents(onsets=onsets) for onsets in picked]


def decode_points(y: np.ndarray, params: DecodeParams) -> ScoredEvents:
    """Peak-pick one regressed density channel into scored point detections.

    Point detections occupy the onsets slot of the result; offsets stay
    empty.  Scoring follows decode_regression: localization on the smoothed
    channel, score from the raw value at the peak.
    """
    return decode_points_batch([y], params)[0]


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


def sweep_seg_threshold_batch(
    ys: list[np.ndarray], mus: tuple, params: DecodeParams
) -> list[list[ScoredEvents]]:
    """sweep_seg_threshold of each probability sequence in ys, as one list of
    series per mu."""
    swept = [sweep_seg_threshold(y, mus, params) for y in ys]
    return [[per_mu[i] for per_mu in swept] for i in range(len(mus))]


def decode_seg_peaks_batch(ys: list[np.ndarray], params: DecodeParams) -> list[ScoredEvents]:
    """decode_seg_peaks of each probability sequence in ys."""
    smoothing, window = SmoothingParams(params.sigma), WindowParams(params.alpha)
    contrasts = [
        window_convolve(gaussian_smooth(_check_probability(y), smoothing), window) for y in ys
    ]
    scores = [np.abs(c) for c in contrasts]
    # onsets are the peaks of each contrast, offsets those of its negation
    picked = _scored_peaks(contrasts + [-c for c in contrasts], scores + scores, params.alpha, None)
    return [
        ScoredEvents(onsets=on, offsets=off)
        for on, off in zip(picked[: len(ys)], picked[len(ys) :])
    ]


def decode_seg_peaks(y: np.ndarray, params: DecodeParams) -> ScoredEvents:
    """Extrema of the windowed contrast of the smoothed probability.

    Onsets are peaks of I, offsets are peaks of -I, both at find_peaks
    indices with spacing >= alpha; scores are |I| at the peak.  mu is unused
    by this decoder.
    """
    return decode_seg_peaks_batch([y], params)[0]
