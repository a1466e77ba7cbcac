"""Decoders that turn model output channels into scored events.

Three post-processing routes are provided: peak picking on regressed
density channels, threshold crossings of the smoothed class-1 probability,
and peak picking on the windowed contrast I of that probability.  Both peak
routes read only the indices find_peaks keeps (signal._spaced_peaks), never
its heights or prominences.

Each decoder has an *_arrays form that decodes a list of series into
detection arrays (rows, steps, scores), in types.checked_rows' layout: row r
holds the onsets (or points) of series r, row len(ys) + r its offsets,
listed by row, then by step.  metric.edap_arrays scores them as they are,
and the one-series decoder builds the record of its one-item case with
_scored_rows.  A list smooths each channel on its own, then stacks the
channels of one length into one 2-D array: a peak decoder picks their
peaks in a single _spaced_peaks call, and the threshold sweep compares the
stacked rows with one mu at a time.  Smoothing reads cached taps and
indices per (sigma, length); smoothed channels of one length are checked
finite once, a list's probabilities once, and row by row only if a list
fails.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .errors import EvregError, InvalidProbability, InvalidSpec, LengthMismatch
# find_peaks is not called here since every decoder picks indices only, but
# perfbench's tests read it as decode.find_peaks
from .signal import (  # noqa: F401
    SmoothingParams,
    WindowParams,
    _check_finite_1d,
    _spaced_peaks,
    expect,
    find_peaks,
    gaussian_smooth,
    is_finite_real,
    is_real,
    real_array,
    window_convolve,
)
from .types import ScoredEvents, _scored_rows


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
        expect(is_real(self.mu) and 0.0 <= self.mu <= 1.0, "mu", self.mu, "in [0, 1]", InvalidSpec)
        ok = self.min_height is None or is_finite_real(self.min_height)
        expect(ok, "min_height", self.min_height, "finite or None", InvalidSpec)


def _by_length(rows: list[np.ndarray]) -> Iterator[tuple[list[int], np.ndarray]]:
    """(members, stacked) for each row length in first-seen order: the indices
    of the rows of that length and those rows stacked into one 2-D array."""
    groups: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        groups.setdefault(len(row), []).append(i)
    for members in groups.values():
        yield members, np.stack([rows[i] for i in members])


def _check_probabilities(rows: list[np.ndarray]) -> None:
    """InvalidProbability unless every sample of the 1-D rows is in [0, 1]."""
    flat = np.concatenate([np.empty(0), *rows])
    if not np.all((flat >= 0.0) & (flat <= 1.0)):  # a NaN fails both
        raise InvalidProbability("probabilities must be finite and within [0, 1]")


def _found(flat: np.ndarray, members: list[int], width: int, shift: int, values: np.ndarray):
    """(rows, steps, scores) of ascending flat indices into a (len(members),
    width) array: index i * width + t is step t + shift of row members[i],
    scored by values[i, t + shift]."""
    row, steps = np.divmod(flat, width)
    steps += shift
    return np.asarray(members)[row], steps, values[row, steps]


def _joined(parts: list) -> tuple:
    """parts, each a (rows, steps, scores) triple listed by row, then by
    step, as one triple listed so."""
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0)
    rows, steps, scores = (np.concatenate(a) for a in zip(*parts))
    order = np.argsort(rows, kind="stable")
    return rows[order], steps[order], scores[order]


def _scored_peaks(
    located: list[np.ndarray], scores: list[np.ndarray], min_distance: int, min_height
) -> tuple:
    """Detection arrays of the peaks _spaced_peaks keeps in each 1-D row of
    located, scored by the same row of scores; the rows of one length are
    checked finite and picked in one _spaced_peaks call."""
    parts = []
    for members, stacked in _by_length(located):
        _check_finite_1d(stacked.ravel(), "x")
        kept = _spaced_peaks(stacked, min_distance, min_height)
        values = np.stack([scores[i] for i in members])
        parts.append(_found(kept, members, stacked.shape[1], 0, values))
    return _joined(parts)


def _pick_channels(ys: list[np.ndarray], params: DecodeParams) -> tuple:
    """Peaks of each smoothed channel (find_peaks indices), scored by the raw
    channel value; _scored_peaks checks that no smoothed sum overflowed."""
    smoothing = SmoothingParams(params.sigma)
    try:
        located = [gaussian_smooth(y, smoothing) for y in ys]
    except EvregError:
        for y in ys:  # row by row, so that an earlier overflow raises first
            _check_finite_1d(gaussian_smooth(y, smoothing), "x")
        raise
    return _scored_peaks(located, ys, params.alpha, params.min_height)


def decode_regression_arrays(
    ys_on: list[np.ndarray], ys_off: list[np.ndarray], params: DecodeParams
) -> tuple:
    """decode_regression of each (ys_on[i], ys_off[i]) pair, as detection arrays."""
    ys_on = [real_array(y, "onset channel", None, InvalidSpec) for y in ys_on]
    ys_off = [real_array(y, "offset channel", None, InvalidSpec) for y in ys_off]
    if len(ys_on) != len(ys_off):
        raise LengthMismatch(f"{len(ys_on)} onset channels but {len(ys_off)} offset channels")
    for y_on, y_off in zip(ys_on, ys_off):
        if y_on.shape != y_off.shape:
            raise LengthMismatch(
                f"onset/offset channels differ in shape: {y_on.shape} vs {y_off.shape}"
            )
    return _pick_channels(ys_on + ys_off, params)


def decode_regression(
    y_on: np.ndarray, y_off: np.ndarray, params: DecodeParams
) -> ScoredEvents:
    """Peak-pick two regressed density channels into scored onsets/offsets.

    Peaks are located on the smoothed channels with spacing >= alpha, but
    each detection keeps the unsmoothed channel value at the peak index as
    its score (the smoothing is for localization only).
    """
    return _scored_rows(*decode_regression_arrays([y_on], [y_off], params), 1)[0]


def decode_points_arrays(ys: list[np.ndarray], params: DecodeParams) -> tuple:
    """decode_points of each channel in ys, as detection arrays."""
    return _pick_channels([real_array(y, "channel", None, InvalidSpec) for y in ys], params)


def decode_points(y: np.ndarray, params: DecodeParams) -> ScoredEvents:
    """Peak-pick one regressed density channel into scored point detections.

    Point detections occupy the onsets slot of the result; offsets stay
    empty.  Scoring follows decode_regression: localization on the smoothed
    channel, score from the raw value at the peak.
    """
    return _scored_rows(*decode_points_arrays([y], params), 1)[0]


def decode_seg_threshold(y: np.ndarray, params: DecodeParams) -> ScoredEvents:
    """Threshold crossings of the smoothed class-1 probability.

    An onset fires at t when smoothed[t-1] < mu and smoothed[t] > mu, an
    offset at the mirrored downward crossing; equality with mu never fires
    (a touch is not a crossing).  Scores are |I[t]| with I the windowed
    contrast of the smoothed probability.  A sequence already above mu at
    t=0 yields no synthetic onset.
    """
    return _scored_rows(*sweep_seg_threshold_arrays([y], (params.mu,), params)[0], 1)[0]


def _contrasts(ys: list[np.ndarray], params: DecodeParams) -> tuple[list, list]:
    """The smoothed class-1 probability sequences in ys and their windowed
    contrasts I, after checking each sequence is 1-D and within [0, 1]."""
    smoothing, window = SmoothingParams(params.sigma), WindowParams(params.alpha)
    try:
        arrs = [real_array(y, "probability sequence", 1, InvalidSpec) for y in ys]
    except EvregError:
        for y in ys:  # row by row, so that an earlier fault raises first
            _check_probabilities([real_array(y, "probability sequence", 1, InvalidSpec)])
        raise
    _check_probabilities(arrs)
    smoothed = [gaussian_smooth(arr, smoothing) for arr in arrs]
    return smoothed, [window_convolve(s, window) for s in smoothed]


def sweep_seg_threshold_arrays(ys: list[np.ndarray], mus: tuple, params: DecodeParams) -> list:
    """decode_seg_threshold of each probability sequence in ys at each mu in
    mus (params.mu is unread), as detection arrays, one triple per mu.

    Each sequence is smoothed and scored on its own.  For each mu, one 2-D
    mask over the adjacent samples of the stacked sequences of one length
    holds the onsets of every row, and another their offsets.
    """
    thresholds = [float(replace(params, mu=mu).mu) for mu in mus]
    smoothed, contrasts = _contrasts(ys, params)
    parts: list[list] = [[] for _ in mus]
    for members, stacked in _by_length(smoothed):
        n = stacked.shape[1]
        before, after = stacked[:, :-1], stacked[:, 1:]
        score = np.abs(np.stack([contrasts[i] for i in members]))
        offset_rows = [i + len(ys) for i in members]
        for per_mu, mu in zip(parts, thresholds):
            # pair t of a row fires at step t + 1
            for rows, mask in ((members, (before < mu) & (after > mu)),
                               (offset_rows, (before > mu) & (after < mu))):
                per_mu.append(_found(np.flatnonzero(mask), rows, n - 1, 1, score))
    return [_joined(per_mu) for per_mu in parts]


def decode_seg_peaks_arrays(ys: list[np.ndarray], params: DecodeParams) -> tuple:
    """decode_seg_peaks of each probability sequence in ys, as detection arrays."""
    _, contrasts = _contrasts(ys, params)
    scores = [np.abs(c) for c in contrasts]
    # onsets are the peaks of each contrast, offsets those of its negation
    return _scored_peaks(contrasts + [-c for c in contrasts], scores + scores, params.alpha, None)


def decode_seg_peaks(y: np.ndarray, params: DecodeParams) -> ScoredEvents:
    """Extrema of the windowed contrast of the smoothed probability.

    Onsets are peaks of I, offsets are peaks of -I, both at find_peaks
    indices with spacing >= alpha; scores are |I| at the peak.  mu is unused
    by this decoder.
    """
    return _scored_rows(*decode_seg_peaks_arrays([y], params), 1)[0]
