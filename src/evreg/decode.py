"""Decoders that turn model output channels into scored events.

Three post-processing routes are provided: peak picking on regressed
density channels, threshold crossings of the smoothed class-1 probability,
and peak picking on the windowed contrast I of that probability.  Both peak
routes read only the indices find_peaks keeps (signal._spaced_peaks), never
its heights or prominences.

Each decoder has a *_batch form that decodes a list of series; the
one-series decoder is its one-item case.  A batch smooths each channel on
its own, then treats the channels of one length as one 2-D array: a peak
batch picks their peaks in a single _spaced_peaks call, the threshold sweep
finds the crossings of every (mu, channel) in one comparison.  Records are
built with ScoredEvents._trusted, since every pair comes from checked
arrays in ascending step order.
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


def _by_length(rows: list[np.ndarray]) -> dict[int, list[int]]:
    """The indices of rows, grouped by row length in first-seen order."""
    groups: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        groups.setdefault(len(row), []).append(i)
    return groups


def _pairs_per_cell(
    flat: np.ndarray, cells: int, width: int, steps: list, values: list
) -> list[tuple[tuple[int, float], ...]]:
    """The (step, value) pairs at the ascending flat indices, split into
    cells of width consecutive indices each."""
    bounds = np.searchsorted(flat, np.arange(cells + 1) * width).tolist()
    return [tuple(zip(steps[a:b], values[a:b])) for a, b in zip(bounds, bounds[1:])]


def _scored_peaks(
    located: list[np.ndarray], scores: list[np.ndarray], min_distance: int, min_height
) -> list[tuple[tuple[int, float], ...]]:
    """(index, score) pairs of the peaks _spaced_peaks keeps in each checked
    1-D row of located, scored by the same row of scores.

    The rows of one length are picked in one _spaced_peaks call.
    """
    out: list[tuple[tuple[int, float], ...]] = [()] * len(located)
    for n, members in _by_length(located).items():
        kept = _spaced_peaks(np.stack([located[i] for i in members]), min_distance, min_height)
        values = np.stack([scores[i] for i in members]).ravel()[kept].tolist()
        picked = _pairs_per_cell(kept, len(members), n, (kept % n).tolist(), values)
        for i, pairs in zip(members, picked):
            out[i] = pairs
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
        ScoredEvents._trusted(on, off)
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
    return [ScoredEvents._trusted(onsets) for onsets in picked]


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
    return [per_mu[0] for per_mu in sweep_seg_threshold_batch([y], mus, params)]


# largest (mus x rows x steps) crossing mask sweep_seg_threshold_batch builds at once
_CROSSING_CELLS = 1 << 22


def sweep_seg_threshold_batch(
    ys: list[np.ndarray], mus: tuple, params: DecodeParams
) -> list[list[ScoredEvents]]:
    """sweep_seg_threshold of each probability sequence in ys, as one list of
    series per mu.

    Each sequence is smoothed and scored on its own.  The smoothed sequences
    of one length are stacked into S (rows, n), and one comparison of its
    adjacent samples against every mu finds the onsets and offsets of each
    (mu, row), in blocks of mus of at most _CROSSING_CELLS mask cells.
    """
    smoothing, window = SmoothingParams(params.sigma), WindowParams(params.alpha)
    smoothed = [gaussian_smooth(_check_probability(y), smoothing) for y in ys]
    scores = [np.abs(window_convolve(s, window)) for s in smoothed]
    empty = ScoredEvents._trusted(())
    out = [[empty] * len(ys) for _ in mus]
    thresholds = np.asarray(mus, dtype=np.float64)
    for n, members in _by_length(smoothed).items():
        if n < 2:
            continue
        rows, pairs = len(members), n - 1
        stacked = np.stack([smoothed[i] for i in members])
        before, after = stacked[:, :-1], stacked[:, 1:]
        score = np.stack([scores[i] for i in members]).ravel()
        block = max(1, _CROSSING_CELLS // stacked.size)
        for k0 in range(0, len(mus), block):
            mu = thresholds[k0 : k0 + block, None, None]
            cells = len(mu) * rows
            found = []
            # cell c = (mu offset) * rows + row; its pair t fires at step t + 1
            for mask in ((before < mu) & (after > mu), (before > mu) & (after < mu)):
                flat = np.flatnonzero(mask)
                cell, t = np.divmod(flat, pairs)
                values = score[(cell % rows) * n + t + 1].tolist()
                found.append(_pairs_per_cell(flat, cells, pairs, (t + 1).tolist(), values))
            for c, (onsets, offsets) in enumerate(zip(*found)):
                k, r = divmod(c, rows)
                out[k0 + k][members[r]] = ScoredEvents._trusted(onsets, offsets)
    return out


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
        ScoredEvents._trusted(on, off)
        for on, off in zip(picked[: len(ys)], picked[len(ys) :])
    ]


def decode_seg_peaks(y: np.ndarray, params: DecodeParams) -> ScoredEvents:
    """Extrema of the windowed contrast of the smoothed probability.

    Onsets are peaks of I, offsets are peaks of -I, both at find_peaks
    indices with spacing >= alpha; scores are |I| at the peak.  mu is unused
    by this decoder.
    """
    return decode_seg_peaks_batch([y], params)[0]
