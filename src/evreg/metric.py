"""Event Detection AP (EDAP) and tolerance-based precision/recall/F1.

Predictions are matched to ground-truth steps greedily in descending score
order; each prediction may claim the nearest still-unmatched truth within
the tolerance.  AP is computed per (event class x tolerance) cell after
pooling all series, and the final score is the unweighted mean over cells.

Every scorer hands one core, _pooled_flags, its detections as flat arrays
(pooled segment, truth set, step, score): one lexsort ranks them in pooled
order, one searchsorted finds how far each is from truth, and those within
reach are matched in priority rounds (_rounds) that make greedy's decisions
for every (tolerance, segment, series) group at once.  edap_table and
edap_arrays reach it through one adapter, _edap_tables, that reads and
checks each truth once: edap_table turns its records into detection
arrays, and edap_arrays scores several prediction sets held as the arrays
the decoders find, once types.checked_rows passes them.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import EmptyTruth, EvregError, InvalidEvents, InvalidSpec
from .signal import check_int, expect, is_finite_real, is_real, real_array, shown
from .types import (
    EventSet, ScoredEvents, checked_detections, checked_rows, checked_steps,
)


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


def _greedy(steps: Sequence[int], truth: Sequence[int], tol) -> list[bool]:
    """TP flags of ranked prediction steps against sorted truth steps at one
    tolerance."""
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
    return flags


# priority rounds before the detections still undecided go through _greedy
_ROUNDS = 8
# a truth set and its detections are matched in rounds when every step lies
# below _WIDE; a wide set goes through _greedy
_WIDE = 2**40
# sentinel keys past every (group, step) key; their distances stay in int64
_FAR = 2**62


def _nearest(free: np.ndarray, keys: np.ndarray) -> tuple:
    """(bound, near, distance): free between the two sentinels, and the index
    into it of each key's nearest free key (ties: the lower) and how far."""
    bound = np.concatenate(([-_FAR], free, [_FAR]))
    at = np.searchsorted(bound, keys)
    left, right = keys - bound[at - 1], bound[at] - keys
    return bound, np.where(left <= right, at - 1, at), np.minimum(left, right)


def _rounds(keys, ranks, lims, free, shift: int) -> np.ndarray:
    """TP flags of detections matched greedily, in rank order, within groups.

    keys holds each detection as (group << shift) + step in ascending order,
    ranks its rank (distinct within a group) and lims the distance it may
    match at; free holds the truth of each group keyed alike, sorted.  Each
    round takes, for every undecided detection, its nearest free truth t.
    It is an FP when t is further than its lim, and takes t when it
    outranks every other undecided detection within its lim of t.  Greedy
    in rank order decides both alike: only a higher-ranked detection within
    reach of t could take t first, and taking other truth never brings a
    nearer one.  Each round decides at least the best of each group; after
    _ROUNDS rounds, the rest of each group goes through _greedy.
    """
    won = np.zeros(len(keys), dtype=bool)
    left = np.arange(len(keys))
    for _ in range(_ROUNDS):
        if not len(left):
            return won
        bound, near, distance = _nearest(free, keys)
        t = bound[near]
        # the best rank among undecided keys within lims of t: both ends of
        # each range in one reduceat, whose odd entries are dropped
        ends = np.column_stack((np.searchsorted(keys, t - lims),
                                np.searchsorted(keys, t + lims, side="right")))
        best = np.minimum.reduceat(np.append(ranks, 0), ends.ravel())[::2]
        near_enough = distance <= lims
        claims = near_enough & (best == ranks)
        won[left[claims]] = True
        kept = np.ones(len(bound), dtype=bool)
        kept[near[claims]] = False
        free = bound[kept][1:-1]
        undecided = near_enough & ~claims
        keys, ranks, lims, left = (a[undecided] for a in (keys, ranks, lims, left))
    group = keys >> shift
    order = np.lexsort((ranks, group))
    cuts = np.flatnonzero(np.diff(group[order])) + 1
    for members in np.split(order, cuts) if len(order) else ():
        base = int(group[members[0]]) << shift
        a, b = np.searchsorted(free, (base, base + (1 << shift)))
        won[left[members]] = _greedy(
            (keys[members] - base).tolist(), (free[a:b] - base).tolist(), int(lims[members[0]])
        )
    return won


def _pooled_flags(cc, sets, steps, scores, truth: dict, tolerances) -> tuple:
    """(order, flags): the pooled order of the detections and their TP flags
    in it, one row per tolerance.

    Detection i scores scores[i] in pooled segment cc[i], one (prediction
    set, class), and is matched within it against truth set sets[i]; each
    segment lists its detections by series, then by step.  The pooled order
    is by segment, descending score, then that listing, so that it is each
    series' rank order too.  truth maps each set to its sorted steps.
    steps is int64, or of dtype object when a step is _WIDE or more; a set
    with a step of _WIDE or more, in truth or in its detections, is wide.

    A detection's reach is its distance to the nearest truth step of its
    set.  At each tolerance only the detections in reach go through
    _rounds, every (tolerance, segment, set) group at once; wide sets go
    through _greedy.
    """
    raw = steps
    if steps.dtype == object:
        steps = np.minimum(steps, _WIDE).astype(np.int64)
    order = np.lexsort((-scores, cc))
    n, segments = len(order), int(cc.max(initial=0)) + 1
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    flags = np.zeros((len(tolerances), n), dtype=bool)
    num_sets = max(max(truth, default=0), int(sets.max(initial=0))) + 1
    top = int(steps.max(initial=0))
    wide = {s for s, t in truth.items() if t and t[-1] >= _WIDE}
    if top >= _WIDE:
        wide.update(sets[steps >= _WIDE].tolist())
    narrow = sorted(s for s in truth if s not in wide)
    counts = np.zeros(num_sets, dtype=np.intp)
    counts[narrow] = [len(truth[s]) for s in narrow]
    t = np.array([v for s in narrow for v in truth[s]], dtype=np.int64)
    shift = max(int(t.max(initial=0)), top).bit_length() + 1
    slow = wide
    if (len(tolerances) * segments * num_sets) << shift > _FAR // 2:
        slow = set(range(num_sets))  # too many groups for int64 keys
    elif n:
        # each segment lists its keys in ascending order, which searchsorted
        # finds faster than keys in no order
        keys = (sets << shift) + steps
        _, _, reach = _nearest(np.repeat(np.arange(num_sets) << shift, counts) + t, keys)
        by_key = np.argsort(keys + ((cc * num_sets) << shift))
        # steps of one set are less than cap apart, of two sets more
        cap = 1 << (shift - 1)
        lims = [cap if tol >= cap else int(tol) for tol in tolerances]
        picked = [by_key[reach[by_key] <= lim] for lim in lims]
        row = np.repeat(np.arange(len(lims)), [len(p) for p in picked])
        picked = np.concatenate(picked)
        # (tolerance, segment, set) groups, each in ascending key order
        keys = keys[picked] + (((row * segments + cc[picked]) * num_sets) << shift)
        # each group's truth, keyed as its detections are
        group = keys[np.flatnonzero(np.diff(keys >> shift, prepend=-1))] >> shift
        own = counts[group % num_sets]
        at = np.repeat(np.cumsum(counts)[group % num_sets] - np.cumsum(own), own)
        free = np.repeat(group << shift, own) + t[at + np.arange(len(at))]
        ranks = rank[picked]
        flags[row, ranks] = _rounds(keys, ranks, np.array(lims)[row], free, shift)
    for s in sorted(slow):
        mine = np.flatnonzero(sets == s)
        for segment in sorted(set(cc[mine].tolist())):
            ranked = mine[cc[mine] == segment]
            ranked = ranked[np.argsort(rank[ranked])]
            ranked_steps = [int(raw[i]) for i in ranked]
            for k, tol in enumerate(tolerances):
                flags[k, rank[ranked]] = _greedy(ranked_steps, truth.get(s, ()), tol)
    return order, flags


def _step_array(steps: list) -> np.ndarray:
    """The int steps as int64, or as dtype object if one is _WIDE or more."""
    return np.array(steps, dtype=np.int64 if max(steps, default=0) < _WIDE else object)


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
    # a stable sort by step lists them as a ScoredEvents slot does
    pairs = sorted(checked_detections(pred, "pred"), key=itemgetter(0))
    free = sorted(checked_steps(truth, "truth"))
    steps = _step_array([step for step, _ in pairs])
    scores = np.array([score for _, score in pairs], dtype=np.float64)
    zeros = np.zeros(len(pairs), dtype=np.int64)
    order, flags = _pooled_flags(zeros, zeros, steps, scores, {0: free}, (tol,))
    return MatchResult(
        tuple(flags[0].tolist()), tuple(scores[order].tolist()), len(free) - int(flags.sum())
    )


def _average_precisions(flags: np.ndarray, cc: np.ndarray, segments: int) -> np.ndarray:
    """The sum of the precision at each TP of each (row, segment) of flags,
    whose columns are in pooled order, segment cc ascending: divided by the
    segment's truth count it is its AP."""
    start = np.searchsorted(cc, np.arange(segments))[cc]
    count = np.cumsum(flags, axis=1)
    count -= np.hstack((np.zeros((len(flags), 1), dtype=count.dtype), count))[:, start]
    precision = np.where(flags, count / (np.arange(flags.shape[1]) - start + 1), 0.0)
    # bincount adds each bin's weights in order, as a running sum over the
    # TPs does: an FP adds 0.0, which changes no bits
    bins = (np.arange(len(flags))[:, None] * segments + cc).ravel()
    sums = np.bincount(bins, precision.ravel(), minlength=len(flags) * segments)
    return sums.reshape(len(flags), segments)


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
    flags = real_array(flags, "flags", 1, InvalidSpec) != 0
    if num_truth == 0:
        if len(flags) > 0:
            return 0.0
        raise EmptyTruth("AP is undefined with no truth and no predictions")
    sums = _average_precisions(flags[None], np.zeros(len(flags), dtype=np.intp), 1)
    return float(sums[0, 0] / num_truth)


def _tables(cc: np.ndarray, flags: np.ndarray, num_sets: int, num_truth: list, config) -> list:
    """The edap_table of each of num_sets prediction sets from the flags of
    their segments, set k's class c being segment k * len(classes) + c."""
    classes = config.classes
    sums = _average_precisions(flags, cc, num_sets * len(classes))
    aps = (sums / np.tile(num_truth, num_sets)).T.reshape(num_sets, -1).tolist()
    keys = [(cls, tol) for cls in classes for tol in config.tolerances]
    return [dict(zip(keys, values)) for values in aps]


def _check_known(sids, truth: Mapping) -> None:
    """InvalidEvents unless every series in sids is in truth."""
    missing = set(sids) - set(truth)
    if missing:
        raise InvalidEvents(f"predictions for unknown series: {sorted(missing)}")


def _edap_tables(sids, found: tuple, num_sets: int, truth: Mapping, config) -> list:
    """The edap_table of each of num_sets prediction sets of the series sids,
    all in truth, from their detection arrays (cells, rows, steps, scores)
    as types.checked_rows joins them, steps of dtype object when one is
    _WIDE or more.

    Each class's truth is read once and each (class, series) truth with
    detections checked once.  Of their faults, the one raised is the first
    that scoring the sets one by one meets: the least (set, class, series)
    key, where a class's read or EmptyTruth fault is keyed (0, class, -1)
    and a truth step's by the first set with detections there.
    """
    cell, rows, steps, scores = found
    classes, count, ids = config.classes, len(sids), sorted(truth)
    reads, num_truth, faults = [], [], []
    for c, cls in enumerate(classes):
        try:
            read = [truth[sid].by_class(cls) for sid in ids]
            if not any(read):
                raise EmptyTruth(f"no ground-truth events for class {cls!r}")
        except EvregError as exc:
            faults.append(((0, c, -1), exc))
            break  # no later class can fault first
        reads.append(read)
        num_truth.append(sum(map(len, read)))
    index = {sid: i for i, sid in enumerate(ids)}
    offset = rows >= count
    series = np.array([index[sid] for sid in sids], dtype=np.int64)[rows - offset * count]
    # each class reads the offset slot, or the onset slot as onset and point do
    picked = [np.flatnonzero(offset if cls == "offset" else ~offset)
              for cls in classes[: len(reads)]]
    at = np.concatenate([np.empty(0, dtype=np.intp), *picked])
    of_class = np.repeat(np.arange(len(picked)), [len(p) for p in picked])
    cc, sets = cell[at] * len(classes) + of_class, series[at] + of_class * len(ids)
    free = {}
    # np.unique would import numpy.ma, about 1 MB, on its first call
    for s in np.flatnonzero(np.bincount(sets)).tolist():
        c, i = divmod(s, len(ids))
        try:
            free[s] = sorted(checked_steps(reads[c][i], f"truth[{ids[i]!r}]"))
        except EvregError as exc:
            faults.append(((int(cc[sets == s].min()) // len(classes), c, i), exc))
    if faults:
        raise min(faults, key=itemgetter(0))[1]
    order, flags = _pooled_flags(cc, sets, steps[at], scores[at], free, config.tolerances)
    return _tables(cc[order], flags, num_sets, num_truth, config)


def edap_arrays(
    sids: Sequence[str],
    cells: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    truth: Mapping[str, EventSet],
    config: EdapConfig,
) -> list[float]:
    """edap of each prediction set in cells, held as the arrays the decoders find.

    cells[k] = (rows, steps, scores) holds set k of the series sids, which
    must ascend (InvalidSpec), in the layout types.checked_rows checks
    first: row r < len(sids) holds the onsets (or points) of sids[r], row
    len(sids) + r its offsets.  Each score holds the bits edap gives the
    set's records, and a fault raises what scoring those records one by one
    with edap raises first, without building them.
    """
    ascending = all(a < b for a, b in zip(sids, sids[1:]))
    expect(ascending, "sids", sids, "ascending distinct series ids", InvalidSpec)
    found = checked_rows(cells, len(sids))
    if not cells:
        return []
    _check_known(sids, truth)
    tables = _edap_tables(sids, found, len(cells), truth, config)
    return [float(np.mean(list(t.values()))) for t in tables]


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
    matched.  A prediction for a series not in truth raises InvalidEvents, a
    class with no pooled truth EmptyTruth, and a truth step of a series with
    detections that fails types.step_fault InvalidEvents.
    """
    _check_known(pred, truth)
    ids = sorted(truth)
    records = [pred[sid] if sid in pred else ScoredEvents() for sid in ids]
    slots = [r.onsets for r in records] + [r.offsets for r in records]
    rows = np.repeat(np.arange(len(slots)), [len(slot) for slot in slots])
    steps = _step_array([step for slot in slots for step, _ in slot])
    scores = np.array([score for slot in slots for _, score in slot], dtype=np.float64)
    found = (np.zeros(len(rows), dtype=np.int64), rows, steps, scores)
    return _edap_tables(ids, found, 1, truth, config)[0]


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
