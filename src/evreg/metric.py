"""Event Detection AP (EDAP) and tolerance-based precision/recall/F1.

Predictions are matched to ground-truth steps greedily in descending score
order; each prediction may claim the nearest still-unmatched truth within
the tolerance.  AP is computed per (event class x tolerance) cell after
pooling all series, and the final score is the unweighted mean over cells.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptyTruth, InvalidEvents, InvalidSpec
from .types import EventSet, ScoredEvents, checked_detections, checked_steps


def ascending_positive_ints(values, message: str) -> tuple[int, ...]:
    """values as a tuple of ints if they are nonempty, integral, >= 1 and
    strictly ascending, else InvalidSpec(message.format(values))."""
    try:
        t = tuple(values)
        if t and all(int(v) == v and v >= 1 for v in t) and list(t) == sorted(set(t)):
            return tuple(int(v) for v in t)
    except (TypeError, ValueError, OverflowError):
        t = values
    raise InvalidSpec(message.format(t))


@dataclass(frozen=True)
class EdapConfig:
    """Tolerances (in steps) and the event classes scored."""

    tolerances: tuple[int, ...]
    classes: tuple[str, ...] = ("onset", "offset")

    def __post_init__(self):
        t = ascending_positive_ints(
            self.tolerances, "tolerances={}, expected nonempty ascending distinct positive ints"
        )
        object.__setattr__(self, "tolerances", t)
        if isinstance(self.classes, str):
            raise InvalidSpec(f"classes={self.classes!r}, expected a sequence of class names")
        object.__setattr__(self, "classes", tuple(self.classes))
        if not self.classes:
            raise InvalidSpec("classes must be nonempty")
        if len(set(self.classes)) != len(self.classes):
            raise InvalidSpec(f"classes={self.classes}, expected distinct class names")


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
    try:
        valid_tol = not isinstance(tol, (bool, np.bool_)) and tol >= 0
    except TypeError:
        valid_tol = False
    if not valid_tol:
        raise InvalidSpec(f"tol={tol}, expected a number >= 0")
    ranked = _ranked(checked_detections(pred, "pred"))
    flags, unmatched = _greedy(
        [s for s, _ in ranked], sorted(checked_steps(truth, "truth")), tol
    )
    return MatchResult(tuple(flags), tuple([v for _, v in ranked]), unmatched)


def average_precision(flags: Sequence[bool], num_truth: int) -> float:
    """AP over ranked flags: sum of precision at each TP, divided by num_truth.

    Stepwise integration over achieved recall only (no interpolation).  With
    num_truth == 0 the value is 0.0 when predictions exist and undefined
    (EmptyTruth) when there are none.
    """
    if num_truth < 0:
        raise InvalidSpec(f"num_truth={num_truth}, expected >= 0")
    if num_truth == 0:
        if len(flags) > 0:
            return 0.0
        raise EmptyTruth("AP is undefined with no truth and no predictions")
    tp = 0
    total = 0.0
    for i, flag in enumerate(flags):
        if flag:
            tp += 1
            total += tp / (i + 1)
    return total / num_truth


def edap_table(
    pred: Mapping[str, ScoredEvents],
    truth: Mapping[str, EventSet],
    config: EdapConfig,
) -> dict[tuple[str, int], float]:
    """AP per (class, tolerance) cell with all series pooled before ranking.

    Each (series, class) is ranked once as match_events ranks it, and each
    class is pooled once: descending score, ties by series id, then by rank
    within the series.  Matching runs within each series, and every
    tolerance reads the flags in that pooled order.  A series without
    detections of a class adds no flags, so it is not matched.  A class
    with no pooled truth raises EmptyTruth.
    """
    missing = set(pred) - set(truth)
    if missing:
        raise InvalidEvents(f"predictions for unknown series: {sorted(missing)}")

    sids = sorted(truth)
    table: dict[tuple[str, int], float] = {}
    for cls in config.classes:
        steps = [truth[sid].by_class(cls) for sid in sids]
        num_truth = sum(map(len, steps))
        if num_truth == 0:
            raise EmptyTruth(f"no ground-truth events for class {cls!r}")
        # ScoredEvents holds checked (int, float) pairs, so each non-empty
        # series is ranked and its truth sorted once for every tolerance
        series = []
        scores: list[float] = []
        for sid, t in zip(sids, steps):
            p = pred[sid].by_class(cls) if sid in pred else ()
            if p:
                ranked = _ranked(p)
                series.append(([s for s, _ in ranked], sorted(map(int, t))))
                scores += [v for _, v in ranked]
        # series in id order, each in rank order: a stable descending sort
        # then breaks score ties by series id, then by rank
        order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
        for tol in config.tolerances:
            flags = [
                f for ranked_steps, free in series for f in _greedy(ranked_steps, free, tol)[0]
            ]
            table[(cls, tol)] = average_precision([flags[i] for i in order], num_truth)
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
