"""Event Detection AP (EDAP) and tolerance-based precision/recall/F1.

Predictions are matched to ground-truth steps greedily in descending score
order; each prediction may claim the nearest still-unmatched truth within
the tolerance.  AP is computed per (event class x tolerance) cell after
pooling all series, and the final score is the unweighted mean over cells.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import EmptyTruth, InvalidEvents, InvalidSpec
from .signal import check_int, expect, is_finite_real, is_real, shown
from .types import EventSet, ScoredEvents, checked_detections, checked_steps


def ascending_positive_ints(values) -> tuple[int, ...] | None:
    """values as a tuple of ints if they are nonempty, real (is_real),
    integral, >= 1 and strictly ascending, else None."""
    try:
        t = tuple(values)
        valid = all(is_real(v) and int(v) == v and v >= 1 for v in t)
    except (TypeError, ValueError, OverflowError):
        return None
    if t and valid and list(t) == sorted(set(t)):
        return tuple(int(v) for v in t)
    return None


@dataclass(frozen=True)
class EdapConfig:
    """Tolerances (in steps) and the event classes scored."""

    tolerances: tuple[int, ...]
    classes: tuple[str, ...] = ("onset", "offset")

    def __post_init__(self):
        t = ascending_positive_ints(self.tolerances)
        expected = "nonempty ascending distinct positive ints"
        expect(t is not None, "tolerances", self.tolerances, expected, InvalidSpec)
        object.__setattr__(self, "tolerances", t)
        classes = self.classes
        if isinstance(classes, Iterable) and not isinstance(classes, str):
            classes = tuple(classes)
        ok = isinstance(classes, tuple) and all(isinstance(c, str) for c in classes)
        expect(ok, "classes", shown(self.classes, repr), "a sequence of class names", InvalidSpec)
        object.__setattr__(self, "classes", classes)
        ok = len(set(classes)) == len(classes) > 0
        expect(ok, "classes", classes, "distinct class names, at least one", InvalidSpec)


@dataclass(frozen=True)
class MatchResult:
    """Flags and scores in ranked (descending score) order plus unmatched truth."""

    flags: tuple[bool, ...]
    scores: tuple[float, ...]
    unmatched_truth: int

    @property
    def num_tp(self) -> int:
        return sum(self.flags)

    @property
    def num_fp(self) -> int:
        return len(self.flags) - self.num_tp


def _ranked(pairs: Sequence[tuple[int, float]]) -> list[tuple[int, float]]:
    """(step, score) pairs by descending score, ties by ascending step."""
    # two stable sorts: by step, then by descending score, so ties keep step order
    ranked = sorted(pairs)
    ranked.sort(key=itemgetter(1), reverse=True)
    return ranked


def _greedy(steps: Sequence[int], truth: Sequence[int], tol: int) -> tuple[list[bool], int]:
    """TP flags of ranked prediction steps against sorted truth steps at one
    tolerance, and the number of truth steps left unmatched."""
    free = list(truth)
    flags: list[bool] = []
    for step in steps:
        # free[j - 1] < step <= free[j]: the nearest free truth on each side
        j = bisect.bisect_left(free, step)
        best = j if j < len(free) and free[j] - step <= tol else None
        if j > 0 and step - free[j - 1] <= tol and (
            best is None or step - free[j - 1] <= free[j] - step
        ):
            best = j - 1
        flags.append(best is not None)
        if best is not None:
            del free[best]
    return flags, len(free)


# every integer within _CAP of 0 is a float64, and so is the difference of any two
_CAP = 2**52


def _clamped(values) -> np.ndarray:
    """values (numbers, ints of any size) as float64, each above _CAP
    clamped to it, which brings no two values further apart."""
    return np.minimum(values, _CAP).astype(np.float64, copy=False)


def _keys(series: np.ndarray, values: np.ndarray) -> np.ndarray:
    """series + i values, as complex numbers, which numpy orders by real
    part and then by imaginary part."""
    keys = np.empty(len(values), dtype=np.complex128)
    keys.real, keys.imag = series, values
    return keys


def _pooled_flags(
    series: list[tuple[list[int], list[int]]], tolerances: Sequence
) -> np.ndarray:
    """TP flags of the ranked steps of several series, each matched against
    its sorted truth steps: row k holds every series' flags at tolerances[k],
    series after series, each in rank order.

    A step's reach is its distance to the nearest truth step of its series
    with steps and tolerances clamped to _CAP: every float difference is
    exact, and clamping moves no step further from a truth step, so the
    reach is a lower bound on the true distance.  A step whose reach
    exceeds tol can neither match nor change what the others match at tol,
    so at each tolerance each series sends only its steps within reach, in
    rank order, through _greedy, which matches the unclamped ints; the
    others are not TPs.
    """
    steps = [s for ranked, _ in series for s in ranked]
    num_steps = [len(ranked) for ranked, _ in series]
    ids = np.arange(len(series))
    p = _clamped(steps)
    # each series' truth between -_CAP and _CAP, so that one searchsorted of
    # the (series, step) keys finds, within each step's own series, the
    # truth steps on either side of it (a sentinel only lowers a reach)
    t = _clamped([v for _, free in series for v in (-_CAP, *free, _CAP)])
    at = np.searchsorted(
        _keys(np.repeat(ids, [len(free) + 2 for _, free in series]), t),
        _keys(np.repeat(ids, num_steps), p),
    )
    reach = np.minimum(t[at] - p, p - t[at - 1])

    limits = _clamped(tolerances)
    near = reach <= limits[:, None]
    # ahead[k, i]: steps before i within reach of tolerances[k]
    ahead = np.zeros((len(limits), len(steps) + 1), dtype=np.intp)
    np.cumsum(near, axis=1, out=ahead[:, 1:])
    bounds = [0, *accumulate(num_steps)]
    found: list[bool] = []
    for tol, cuts, mask in zip(tolerances, ahead[:, bounds].tolist(), near.tolist()):
        contested = list(compress(steps, mask))
        for (_, free), a, b in zip(series, cuts, cuts[1:]):
            if a < b:
                found += _greedy(contested[a:b], free, tol)[0]
    flags = np.zeros(near.shape, dtype=bool)
    flags[near] = found
    return flags


def match_events(
    pred: Sequence[tuple[int, float]], truth: Sequence[int], tol: int
) -> MatchResult:
    """Greedy matching of scored predictions against truth steps.

    Predictions are processed by descending score (ties: ascending step).
    Each claims the nearest unmatched truth step within |delta| <= tol,
    ties going to the earlier truth step.  Returns per-prediction TP flags
    in the processing order together with the scores in that order.

    tol must be a number >= 0, not NaN or a bool (InvalidSpec).  Every
    prediction must pass types.detection_fault and every truth step
    types.step_fault; InvalidEvents names the first that does not.
    """
    expect(is_real(tol) and tol >= 0, "tol", tol, "a number >= 0", InvalidSpec)
    ranked = _ranked(checked_detections(pred, "pred"))
    free = sorted(checked_steps(truth, "truth"))
    flags = _pooled_flags([([s for s, _ in ranked], free)], (tol,))[0]
    return MatchResult(
        tuple(flags.tolist()), tuple([v for _, v in ranked]), len(free) - int(flags.sum())
    )


def _average_precisions(flags: np.ndarray, num_truth: int) -> np.ndarray:
    """AP of each row of ranked boolean flags against num_truth >= 1 truth steps."""
    precision = np.where(flags, np.cumsum(flags, axis=1) / np.arange(1, flags.shape[1] + 1), 0.0)
    # accumulate adds along each row in rank order, as a running sum over
    # the TPs does: an FP adds 0.0, which changes no bits
    column = np.zeros((len(flags), 1))
    return np.add.accumulate(np.hstack((column, precision)), axis=1)[:, -1] / num_truth


def average_precision(flags: Sequence[bool], num_truth: int) -> float:
    """AP over ranked flags: sum of precision at each TP, divided by num_truth.

    Stepwise integration over achieved recall only (no interpolation).  With
    num_truth == 0 the value is 0.0 when predictions exist and undefined
    (EmptyTruth) when there are none.
    """
    check_int("num_truth", num_truth, InvalidSpec)
    # the float sums are divided by it
    if not is_finite_real(num_truth):
        raise InvalidSpec("num_truth is past the float range")
    expect(num_truth >= 0, "num_truth", num_truth, ">= 0", InvalidSpec)
    if num_truth == 0:
        if len(flags) > 0:
            return 0.0
        raise EmptyTruth("AP is undefined with no truth and no predictions")
    return float(_average_precisions(np.asarray(flags, dtype=bool)[None], num_truth)[0])


def edap_table(
    pred: Mapping[str, ScoredEvents],
    truth: Mapping[str, EventSet],
    config: EdapConfig,
) -> dict[tuple[str, int], float]:
    """AP per (class, tolerance) cell with all series pooled before ranking.

    Each (series, class) is ranked once as match_events ranks it, and each
    class is pooled once: descending score, ties by series id, then by rank
    within the series.  Matching runs within each series as match_events
    matches, and every tolerance reads the flags in that pooled order.  A
    series without detections of a class adds no flags, so it is not
    matched.  A class with no pooled truth raises EmptyTruth; a truth step
    of a series with detections that fails types.step_fault raises
    InvalidEvents.
    """
    missing = set(pred) - set(truth)
    if missing:
        raise InvalidEvents(f"predictions for unknown series: {sorted(missing)}")

    # ScoredEvents holds checked (int, float) pairs, so each non-empty
    # (series, class) is ranked, and its truth checked and sorted, once for
    # every tolerance; all of them are matched in one pool
    sids = sorted(truth)
    series: list[tuple[list[int], list[int]]] = []
    scores: list[list[float]] = []
    num_truth: list[int] = []
    for cls in config.classes:
        steps = [truth[sid].by_class(cls) for sid in sids]
        num_truth.append(sum(map(len, steps)))
        if num_truth[-1] == 0:
            raise EmptyTruth(f"no ground-truth events for class {cls!r}")
        scores.append([])
        for sid, t in zip(sids, steps):
            p = pred[sid].by_class(cls) if sid in pred else ()
            if p:
                ranked = _ranked(p)
                free = sorted(checked_steps(t, f"truth[{sid!r}]"))
                series.append(([s for s, _ in ranked], free))
                scores[-1] += [v for _, v in ranked]
    flags = _pooled_flags(series, config.tolerances)

    table: dict[tuple[str, int], float] = {}
    start = 0
    for cls, class_scores, n in zip(config.classes, scores, num_truth):
        # series in id order, each in rank order: a stable descending sort
        # then breaks score ties by series id, then by rank
        order = np.argsort(-np.array(class_scores, dtype=np.float64), kind="stable")
        aps = _average_precisions(flags[:, start + order], n).tolist()
        table.update(zip([(cls, tol) for tol in config.tolerances], aps))
        start += len(class_scores)
    return table


def edap(
    pred: Mapping[str, ScoredEvents],
    truth: Mapping[str, EventSet],
    config: EdapConfig,
) -> float:
    """Unweighted mean AP over every (class, tolerance) cell."""
    table = edap_table(pred, truth, config)
    return float(np.mean(list(table.values())))


def prf_from_counts(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall, and F1 from match counts (fn counts unmatched truth).

    With no predictions and no truth all three are 1.0; otherwise an empty
    side scores 0.0, and F1 is 0 when precision + recall is 0.
    """
    if tp == fp == fn == 0:
        return (1.0, 1.0, 1.0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return (precision, recall, f1)


def prf_at_tolerance(
    pred: Sequence[tuple[int, float]], truth: Sequence[int], tol: int
) -> tuple[float, float, float]:
    """Precision, recall, and F1 (prf_from_counts) of greedy matching at one tolerance."""
    result = match_events(pred, truth, tol)
    return prf_from_counts(result.num_tp, result.num_fp, result.unmatched_truth)
