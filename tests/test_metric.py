import bisect
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evreg import metric
from evreg.errors import EmptyTruth, EvregError, InvalidEvents, InvalidSpec
from evreg.metric import (
    EdapConfig,
    average_precision,
    edap,
    edap_table,
    match_events,
    prf_at_tolerance,
    prf_from_counts,
)
from evreg.types import INTERVAL, POINT, EventSet, IntervalEvent, PointEvent, ScoredEvents


def enumeration_match_oracle(pred, truth, tol):
    """Independent reference: explicit sort + nested nearest-search."""
    ranked = sorted(pred, key=lambda p: (-p[1], p[0]))
    available = sorted(truth)
    taken = set()
    flags = []
    for step, _ in ranked:
        choices = [
            (abs(step - t), t, j)
            for j, t in enumerate(available)
            if j not in taken and abs(step - t) <= tol
        ]
        if choices:
            _, _, j = min(choices)
            taken.add(j)
            flags.append(True)
        else:
            flags.append(False)
    return flags, len(available) - len(taken)


def match_events_oracle(pred, truth, tol):
    """match_events as it ranked before its two stable sorts: one sort
    through a Python key, (-score, step), then the same bisection."""
    if tol < 0:
        raise InvalidSpec(f"tol={tol}, expected >= 0")
    pairs = [(int(s), float(v)) for s, v in pred]
    if not all(math.isfinite(v) for _, v in pairs):
        raise InvalidEvents("prediction scores must be finite")
    pairs.sort(key=lambda p: (-p[1], p[0]))
    free = sorted(int(t) for t in truth)
    flags = []
    for step, _ in pairs:
        j = bisect.bisect_left(free, step)
        best = j if j < len(free) and free[j] - step <= tol else None
        if j > 0 and step - free[j - 1] <= tol and (
            best is None or step - free[j - 1] <= free[j] - step
        ):
            best = j - 1
        flags.append(best is not None)
        if best is not None:
            del free[best]
    return flags, [v for _, v in pairs], len(free)


def pooled_edap_table_oracle(pred, truth, config):
    """Reference pooling: match every series at every tolerance, pool the
    (score, series id, rank, flag) rows and sort them by (-score, id, rank).
    A class without truth raises EmptyTruth."""
    table = {}
    for cls in config.classes:
        num_truth = sum(len(t.by_class(cls)) for t in truth.values())
        if num_truth == 0:
            raise EmptyTruth(cls)
        for tol in config.tolerances:
            pooled = []
            for sid in sorted(truth):
                p = pred[sid].by_class(cls) if sid in pred else ()
                result = match_events(p, truth[sid].by_class(cls), tol)
                for rank, (score, flag) in enumerate(zip(result.scores, result.flags)):
                    pooled.append((score, sid, rank, flag))
            pooled.sort(key=lambda r: (-r[0], r[1], r[2]))
            table[(cls, tol)] = average_precision([r[3] for r in pooled], num_truth)
    return table


def loop_average_precision(flags, num_truth):
    """average_precision as a running sum of the precision at each TP."""
    tp, total = 0, 0.0
    for i, flag in enumerate(flags):
        if flag:
            tp += 1
            total += tp / (i + 1)
    return total / num_truth


def loop_edap_table_oracle(pred, truth, config):
    """pooled_edap_table_oracle on the loop oracles alone: every prediction
    of every series matched through match_events_oracle, AP as a running sum."""
    table = {}
    for cls in config.classes:
        num_truth = sum(len(t.by_class(cls)) for t in truth.values())
        for tol in config.tolerances:
            pooled = []
            for sid in sorted(truth):
                p = pred[sid].by_class(cls) if sid in pred else ()
                flags, scores, _ = match_events_oracle(p, truth[sid].by_class(cls), tol)
                pooled += [(v, sid, rank, f) for rank, (v, f) in enumerate(zip(scores, flags))]
            pooled.sort(key=lambda r: (-r[0], r[1], r[2]))
            table[(cls, tol)] = loop_average_precision([r[3] for r in pooled], num_truth)
    return table


# steps across the metric's clamp (2**52), where float64 no longer holds
# every integer (2**53 on), past int64 (2**63 on) and past the float range
# (10**400)
HUGE_BASES = [0, 2**52 - 3, 2**53 - 3, 2**63 - 2, 2**63, 2**64 + 1, 10**30, 10**400]


@st.composite
def dense_window(draw):
    """About 30 scored predictions and 10 truth steps within one 40-step
    window, so that many contend for the same truth at each tolerance."""
    pred = draw(
        st.lists(
            st.tuples(st.integers(0, 40), st.sampled_from([0.0, 0.25, 0.5, 1.0])),
            min_size=25,
            max_size=35,
        ).map(sorted)
    )
    return pred, sorted(draw(st.lists(st.integers(0, 40), min_size=8, max_size=12)))


class TestHugeSteps:
    @pytest.mark.parametrize("base", HUGE_BASES)
    @pytest.mark.parametrize("tol", [0, 1, 2, 5])
    def test_match_events_matches_the_loop(self, base, tol):
        pred = [(base + d, v) for d, v in [(0, 0.3), (1, 0.9), (3, 0.5), (4, 0.8), (9, 0.1)]]
        truth = [base + d for d in (2, 3, 7)]
        flags, scores, unmatched = match_events_oracle(pred, truth, tol)
        result = match_events(pred, truth, tol)
        assert result == metric.MatchResult(tuple(flags), tuple(scores), unmatched)

    @pytest.mark.parametrize("base", HUGE_BASES)
    def test_edap_table_matches_the_loop(self, base):
        pred = {
            "a": ScoredEvents(onsets=((base + 1, 0.9), (base + 2, 0.5), (base + 6, 0.7))),
            "b": ScoredEvents(onsets=((base, 0.7), (base + 12, 0.6))),
        }
        truth = {
            "a": EventSet("a", POINT, (PointEvent(base + 2), PointEvent(base + 5))),
            "b": EventSet("b", POINT, (PointEvent(base + 3),)),
            "c": EventSet("c", POINT, (PointEvent(base + 1),)),
        }
        config = EdapConfig(tolerances=(1, 2, 3, 12), classes=("point",))
        assert edap_table(pred, truth, config) == loop_edap_table_oracle(pred, truth, config)

    def test_rounding_steps_are_still_told_apart(self):
        # 2**53 + 1 and 2**53 + 3 round to 2**53 and 2**53 + 4 as floats
        base = 2**53
        result = match_events([(base + 1, 0.9), (base + 4, 0.5)], [base + 3], 1)
        assert result.flags == (False, True) and result.unmatched_truth == 0
        result = match_events([(base + 1, 0.9)], [base + 3], 1)
        assert result.flags == (False,) and result.unmatched_truth == 1

    @given(
        st.sampled_from(HUGE_BASES),
        st.lists(st.tuples(st.integers(0, 40), st.sampled_from([0.0, 0.25, 0.5, 1.0]))),
        st.lists(st.integers(0, 40), max_size=8),
        st.integers(0, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_match_events_property(self, base, pred, truth, tol):
        pred = [(base + s, v) for s, v in pred]
        truth = [base + t for t in truth]
        flags, scores, unmatched = match_events_oracle(pred, truth, tol)
        assert match_events(pred, truth, tol) == metric.MatchResult(
            tuple(flags), tuple(scores), unmatched
        )


    @given(st.sampled_from(HUGE_BASES), st.lists(dense_window(), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_dense_windows_match_the_loop(self, base, windows):
        pred, truth = {}, {}
        for sid, (p, t) in zip("abc", windows):
            pred[sid] = ScoredEvents(onsets=tuple((base + s, v) for s, v in p))
            truth[sid] = EventSet(sid, POINT, tuple(PointEvent(base + s) for s in t))
        config = EdapConfig(tolerances=(1, 2, 3, 12), classes=("point",))
        assert edap_table(pred, truth, config) == loop_edap_table_oracle(pred, truth, config)
        for sid in pred:
            p, t = pred[sid].onsets, truth[sid].by_class("point")
            for tol in config.tolerances:
                flags, scores, unmatched = match_events_oracle(p, t, tol)
                assert match_events(p, t, tol) == metric.MatchResult(
                    tuple(flags), tuple(scores), unmatched
                )


# steps past the window by 2**40 or more make the series too wide for the
# rounds' int64 keys, so that it goes through _greedy
_OFFSETS = st.integers(0, 24) | st.integers(2**40, 2**40 + 3)
_SCORES = st.sampled_from([-0.5, 0.0, -0.0, 0.25, 0.5, 1.0])


def staircase(base, length):
    """length detections, each outranking the next, and a truth step between
    each two: at tolerance 1 each detection waits for the one before it, so
    the rounds settle one detection per round and leave the rest to _greedy."""
    pred = [(base + 2 * i, 1.0 - i / 64) for i in range(length)]
    return pred, [base + 2 * i + 1 for i in range(length)]


@st.composite
def matcher_series(draw, base):
    """(pred sorted by step, truth) of one series at base: a staircase longer
    than the round cap, or a few detections and truth steps in a narrow
    window with ties of distance and score and duplicate truth steps."""
    if draw(st.booleans()):
        pred, truth = staircase(base, draw(st.integers(metric._ROUNDS + 1, 3 * metric._ROUNDS)))
        extra = draw(st.lists(st.tuples(st.integers(0, 60), _SCORES), max_size=4))
        return sorted(pred + [(base + d, v) for d, v in extra]), truth
    pred = draw(st.lists(st.tuples(_OFFSETS, _SCORES), max_size=12))
    truth = draw(st.lists(_OFFSETS, max_size=8))
    return sorted((base + d, v) for d, v in pred), [base + d for d in truth]


@st.composite
def matcher_problem(draw):
    base = draw(st.sampled_from(HUGE_BASES))
    return base, draw(st.lists(matcher_series(base), min_size=1, max_size=3))


def as_arrays(pred, sids):
    """pred as the (rows, steps, scores) arrays a decoder finds for sids; a
    series absent from pred has no detections."""
    records = [pred.get(sid, ScoredEvents()) for sid in sids]
    found = [(i, s, v) for i, r in enumerate(records) for s, v in r.onsets]
    found += [(len(sids) + i, s, v) for i, r in enumerate(records) for s, v in r.offsets]
    rows, steps, scores = zip(*found) if found else ((), (), ())
    return (np.array(rows, dtype=np.intp), np.array(steps, dtype=np.int64),
            np.array(scores, dtype=np.float64))


def test_edap_arrays_checks_the_series_ids_and_arrays():
    truth = {sid: EventSet(sid, POINT, (PointEvent(1),)) for sid in ("a", "b")}
    config = EdapConfig(tolerances=(1,), classes=("point",))
    found = (np.array([0, 1]), np.array([1, 1]), np.array([0.5, 0.5]))
    assert metric.edap_arrays(["a", "b"], [found], truth, config) == [1.0]
    # equal scores are ranked by series id, so the ids must come in that order
    for sids in (["b", "a"], ["a", "a"]):
        with pytest.raises(InvalidSpec, match="ascending distinct series ids"):
            metric.edap_arrays(sids, [found], truth, config)
    # the arrays are checked before the truth: a series unknown to truth
    # would raise InvalidEvents too, but a later one
    with pytest.raises(InvalidEvents, match="rows must ascend"):
        metric.edap_arrays(["a", "c"], [found, (found[0][::-1],) + found[1:]], truth, config)


class TestArrayMatcher:
    """The rounds and their _greedy tail match as the loop oracles do."""

    @given(matcher_problem())
    @example((0, [staircase(0, 3 * metric._ROUNDS)]))
    @example((2**63, [([(2**63, 0.5), (2**63 + 2**40 + 1, 0.5)], [2**63 + 1, 2**63 + 2**40])]))
    @settings(max_examples=200, deadline=None)
    def test_match_events_matches_the_oracle(self, problem):
        _, series = problem
        for pred, truth in series:
            for tol in (0, 1, 2.5, 3, 7):
                flags, scores, unmatched = match_events_oracle(pred, truth, tol)
                got = match_events(pred, truth, tol)
                assert got.flags == tuple(flags) and got.unmatched_truth == unmatched
                assert [v.hex() for v in got.scores] == [v.hex() for v in scores]

    @given(matcher_problem())
    @example((0, [staircase(0, 3 * metric._ROUNDS), staircase(0, 2 * metric._ROUNDS)]))
    @settings(max_examples=200, deadline=None)
    def test_edap_tables_match_the_oracles(self, problem):
        base, series = problem
        sids = [f"s{i}" for i in range(len(series))]
        pred = {sid: ScoredEvents(onsets=tuple(p)) for sid, (p, _) in zip(sids, series)}
        truth = {
            sid: EventSet(sid, POINT, tuple(PointEvent(t) for t in sorted(steps)))
            for sid, (_, steps) in zip(sids, series)
        }
        config = EdapConfig(tolerances=(1, 2, 3), classes=("point",))
        if not any(truth[sid].events for sid in sids):
            with pytest.raises(EmptyTruth):
                edap_table(pred, truth, config)
            return
        want = pooled_edap_table_oracle(pred, truth, config)
        assert hexed([edap_table(pred, truth, config)]) == hexed([want])
        assert hexed([loop_edap_table_oracle(pred, truth, config)]) == hexed([want])
        if base < 2**62:  # the steps fit in a decoder's int64 arrays
            found = as_arrays(pred, sids)
            assert metric.edap_arrays(sids, [found, found], truth, config) == [
                edap(pred, truth, config)
            ] * 2

    def test_staircase_settles_in_the_greedy_tail(self, monkeypatch):
        greedy, calls = metric._greedy, []

        def counting(steps, truth, tol):
            calls.append(len(steps))
            return greedy(steps, truth, tol)

        monkeypatch.setattr(metric, "_greedy", counting)
        pred, truth = staircase(0, 3 * metric._ROUNDS)
        flags, _, unmatched = match_events_oracle(pred, truth, 1)
        result = match_events(pred, truth, 1)
        assert result.flags == tuple(flags) and result.unmatched_truth == unmatched == 0
        # each round settled one detection; the rest went through _greedy at once
        assert calls == [2 * metric._ROUNDS]


class TestMatchEvents:
    def test_exact_hit(self):
        r = match_events([(100, 0.9)], [100], 10)
        assert r.flags == (True,) and r.unmatched_truth == 0

    def test_outside_tolerance(self):
        r = match_events([(120, 0.9)], [100], 10)
        assert r.flags == (False,) and r.unmatched_truth == 1

    def test_worked_three_pred_case(self):
        pred = [(102, 0.9), (480, 0.8), (300, 0.7)]
        r = match_events(pred, [100, 500], 10)
        assert r.flags == (True, False, False)
        assert r.unmatched_truth == 1

    def test_each_truth_matches_once(self):
        r = match_events([(100, 0.9), (101, 0.8)], [100], 5)
        assert r.flags == (True, False)

    def test_nearest_truth_wins(self):
        # the high-score prediction sits between two truths, nearer the second
        r = match_events([(104, 0.9), (100, 0.8)], [100, 106], 10)
        assert r.flags == (True, True)
        assert r.unmatched_truth == 0

    def test_distance_tie_prefers_earlier_truth(self):
        r = match_events([(103, 0.9)], [100, 106], 10)
        assert r.flags == (True,)
        # the second prediction can still match the later truth
        r = match_events([(103, 0.9), (106, 0.5)], [100, 106], 10)
        assert r.flags == (True, True)

    def test_score_tie_prefers_earlier_step(self):
        # both predictions score 1.0; the earlier step is processed first
        r = match_events([(10, 1.0), (5, 1.0)], [5], 1)
        assert r.scores == (1.0, 1.0)
        assert r.flags == (True, False)  # step 5 ranked first, takes the truth

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pred = [
            (int(rng.integers(0, 200)), float(rng.choice([0.1, 0.5, 0.5, 0.9])))
            for _ in range(rng.integers(0, 12))
        ]
        truth = sorted(int(v) for v in rng.integers(0, 200, size=rng.integers(0, 8)))
        tol = int(rng.integers(0, 30))
        got = match_events(pred, truth, tol)
        flags, unmatched = enumeration_match_oracle(pred, truth, tol)
        assert list(got.flags) == flags
        assert got.unmatched_truth == unmatched


    @pytest.mark.parametrize("seed", range(60))
    def test_tie_heavy_matches_enumeration_oracle(self, seed):
        # a narrow step range makes duplicate truth steps, equal-distance
        # ties and equal scores common
        rng = np.random.default_rng(1000 + seed)
        pred = [
            (int(rng.integers(0, 30)), float(rng.choice([0.2, 0.5, 0.5, 1.0])))
            for _ in range(rng.integers(0, 61))
        ]
        truth = [int(v) for v in rng.integers(0, 30, size=rng.integers(0, 21))]
        for tol in range(11):
            got = match_events(pred, truth, tol)
            flags, unmatched = enumeration_match_oracle(pred, truth, tol)
            assert list(got.flags) == flags
            assert list(got.scores) == [v for _, v in sorted(pred, key=lambda p: (-p[1], p[0]))]
            assert got.unmatched_truth == unmatched


    @given(
        pred=st.lists(
            st.tuples(
                st.integers(0, 12),
                st.one_of(
                    st.sampled_from([0.0, -0.0, 0.25, 1.0]),
                    st.floats(allow_nan=False, allow_infinity=False),
                ),
            ),
            max_size=16,
        ),
        truth=st.lists(st.integers(0, 12), max_size=8),
        tol=st.integers(0, 4),
    )
    @settings(max_examples=500, deadline=None)
    def test_matches_key_sort_oracle_bit_for_bit(self, pred, truth, tol):
        # pred is unsorted with repeated steps; +0.0 and -0.0 tie, so their
        # order (and so the score bits) must follow the input order as before
        flags, scores, unmatched = match_events_oracle(pred, truth, tol)
        got = match_events(pred, truth, tol)
        assert list(got.flags) == flags
        assert got.unmatched_truth == unmatched
        assert [struct.pack("<d", v) for v in got.scores] == [
            struct.pack("<d", v) for v in scores
        ]

    def test_checks_run_before_sorting(self):
        with pytest.raises(InvalidSpec):
            match_events([(1, 0.5)], [1], -1)
        with pytest.raises(InvalidEvents):
            match_events([(1, 0.5), (2, float("nan"))], [1], 1)

    @pytest.mark.parametrize(
        "pred, message",
        [
            ([(1.5, 0.5)], r"pred\[0\]: step 1.5 is not an integer"),
            ([(1, 0.5), (True, 0.5)], r"pred\[1\]: step True is not an integer"),
            ([(1, 0.5), (np.True_, 0.5)], r"pred\[1\]: step True is not an integer"),
            ([(-1, 0.5)], r"pred\[0\]: step -1 is before step 0"),
            ([(1, 0.5), (2, float("inf"))], r"pred\[1\]: score inf is not finite"),
            ([("a", 0.5)], "pred must hold"),
            ([(1, None)], "pred must hold"),
            ([(1,)], "pred must hold"),
        ],
    )
    def test_predictions_follow_the_detection_rule(self, pred, message):
        with pytest.raises(InvalidEvents, match=message):
            match_events(pred, [1], 0)
        with pytest.raises(InvalidEvents, match=message):
            prf_at_tolerance(pred, [1], 0)

    @pytest.mark.parametrize(
        "truth, message",
        [
            ([1, 2.7], r"truth\[1\]: step 2.7 is not an integer"),
            ([True], r"truth\[0\]: step True is not an integer"),
            ([-3], r"truth\[0\]: step -3 is before step 0"),
            ([None], "truth must hold integer steps"),
        ],
    )
    def test_truth_steps_must_be_integers(self, truth, message):
        with pytest.raises(InvalidEvents, match=message):
            match_events([(1, 0.5)], truth, 5)
        with pytest.raises(InvalidEvents, match=message):
            prf_at_tolerance([(1, 0.5)], truth, 5)

    @pytest.mark.parametrize("tol", [float("nan"), True, np.True_, "1", None, -0.5, np.array([1, 2])])
    def test_tolerance_is_a_number_at_least_zero(self, tol):
        with pytest.raises(InvalidSpec, match="tol="):
            match_events([(1, 0.5)], [1], tol)
        with pytest.raises(InvalidSpec, match="tol="):
            prf_at_tolerance([(1, 0.5)], [1], tol)

    def test_numpy_and_integral_float_inputs_are_converted(self):
        r = match_events([(np.int64(3), np.float32(0.5)), (4.0, 1)], [np.int64(4), 3.0], np.int64(0))
        assert r.flags == (True, True) and r.scores == (1.0, 0.5)
        assert all(type(v) is float for v in r.scores)


class TestAveragePrecision:
    def test_single_tp(self):
        assert average_precision([True], 1) == 1.0

    def test_tp_fp_fp(self):
        assert average_precision([True, False, False], 2) == 0.5

    def test_fp_then_tp(self):
        assert average_precision([False, True], 1) == 0.5

    def test_no_predictions(self):
        assert average_precision([], 3) == 0.0

    def test_no_truth_with_predictions_scores_zero(self):
        assert average_precision([False, False], 0) == 0.0

    def test_no_truth_no_predictions_undefined(self):
        with pytest.raises(EmptyTruth):
            average_precision([], 0)

    @pytest.mark.parametrize("num_truth,message", [
        ("1", "num_truth: '1' is not an int"),
        (None, "num_truth: None is not an int"),
        ((), "num_truth: () is not an int"),
        ([1, 2], "num_truth: [1, 2] is not an int"),
        (1.5, "num_truth: 1.5 is not an int"),
        (float("nan"), "num_truth: nan is not an int"),
        (True, "num_truth: True is not an int"),
        (10**400, "num_truth is past the float range"),
        (-1, "num_truth=-1, expected >= 0"),
    ], ids=["str", "None", "tuple", "list", "fraction", "nan", "bool", "huge", "negative"])
    def test_num_truth_is_an_int_at_least_zero(self, num_truth, message):
        with pytest.raises(InvalidSpec) as err:
            average_precision([True], num_truth)
        assert str(err.value) == message

    def test_numpy_int_num_truth(self):
        assert average_precision([True, False], np.int64(2)) == 0.5

    @given(st.lists(st.booleans(), max_size=300), st.integers(1, 400))
    @settings(max_examples=200, deadline=None)
    def test_bits_of_the_running_sum(self, flags, num_truth):
        got = average_precision(flags, num_truth)
        want = loop_average_precision(flags, num_truth)
        assert type(got) is float and struct.pack("<d", got) == struct.pack("<d", want)

    @pytest.mark.parametrize("flags,message", [
        ("abc", "flags must hold real numbers"),
        (None, "flags must be 1-D, got shape ()"),
        (object(), "flags must hold real numbers"),
        (10**400, "flags must hold real numbers"),
        (np.ones((1, 1, 2)), "flags must be 1-D, got shape (1, 1, 2)"),
        (np.array([1 + 1j, 0]), "flags must hold real numbers"),
        ([[True], [True, False]], "flags must hold real numbers"),
    ], ids=["str", "None", "object", "huge", "3-D", "complex", "ragged"])
    def test_flags_are_one_real_row(self, flags, message):
        with pytest.raises(InvalidSpec) as err:
            average_precision(flags, 1)
        assert str(err.value) == message


def single_series(pred_pairs, truth_steps):
    """Build one-series mappings for point-class scoring."""
    pred = {"s": ScoredEvents(onsets=tuple(sorted(pred_pairs)))}
    truth = {
        "s": EventSet("s", POINT, tuple(PointEvent(t) for t in sorted(truth_steps)))
    }
    return pred, truth


class TestEdap:
    def test_perfect_predictions(self):
        events = (IntervalEvent(10, 50), IntervalEvent(100, 160))
        truth = {"s": EventSet("s", INTERVAL, events)}
        pred = {
            "s": ScoredEvents(
                onsets=((10, 0.3), (100, 0.9)), offsets=((50, 0.5), (160, 0.2))
            )
        }
        config = EdapConfig(tolerances=(1, 5, 20))
        assert edap(pred, truth, config) == 1.0

    def test_empty_predictions(self):
        truth = {"s": EventSet("s", INTERVAL, (IntervalEvent(10, 50),))}
        pred = {"s": ScoredEvents()}
        assert edap(pred, truth, EdapConfig(tolerances=(5,))) == 0.0

    def test_worked_case_two_tolerances(self):
        pred, truth = single_series(
            [(102, 0.9), (480, 0.8), (300, 0.7)], [100, 500]
        )
        config = EdapConfig(tolerances=(10, 500), classes=("point",))
        table = edap_table(pred, truth, config)
        assert table[("point", 10)] == 0.5
        assert table[("point", 500)] == 1.0
        assert edap(pred, truth, config) == pytest.approx(0.75)

    def test_empty_truth_is_an_error(self):
        pred, truth = single_series([(10, 0.5)], [])
        with pytest.raises(EmptyTruth):
            edap(pred, truth, EdapConfig(tolerances=(5,), classes=("point",)))

    def test_pooling_ranks_across_series(self):
        # high-scoring FP in series b outranks the TP in series a
        pred = {
            "a": ScoredEvents(onsets=((100, 0.5),)),
            "b": ScoredEvents(onsets=((100, 0.9),)),
        }
        truth = {
            "a": EventSet("a", POINT, (PointEvent(100),)),
            "b": EventSet("b", POINT, (PointEvent(300),)),
        }
        config = EdapConfig(tolerances=(5,), classes=("point",))
        # ranked: (0.9, FP), (0.5, TP) -> AP = (1/2) / 2 = 0.25
        assert edap(pred, truth, config) == pytest.approx(0.25)

    def test_missing_series_counts_as_no_predictions(self):
        pred = {"a": ScoredEvents(onsets=((100, 0.5),))}
        truth = {
            "a": EventSet("a", POINT, (PointEvent(100),)),
            "b": EventSet("b", POINT, (PointEvent(300),)),
        }
        config = EdapConfig(tolerances=(5,), classes=("point",))
        assert edap(pred, truth, config) == pytest.approx(0.5)

    def test_interval_classes(self):
        truth = {"s": EventSet("s", INTERVAL, (IntervalEvent(10, 50),))}
        pred = {"s": ScoredEvents(onsets=((11, 0.9),), offsets=((300, 0.8),))}
        config = EdapConfig(tolerances=(5,))
        table = edap_table(pred, truth, config)
        assert table[("onset", 5)] == 1.0
        assert table[("offset", 5)] == 0.0
        assert edap(pred, truth, config) == pytest.approx(0.5)

    def test_empty_detection_sets_are_not_matched(self, monkeypatch):
        entered = []

        def spying_rounds(keys, ranks, lims, free, shift):
            # the (step, tolerance) of each detection that enters matching
            entered.extend(zip((keys & ((1 << shift) - 1)).tolist(), lims.tolist()))
            return rounds(keys, ranks, lims, free, shift)

        rounds = metric._rounds
        truth = {
            sid: EventSet(sid, INTERVAL, (IntervalEvent(10, 50), IntervalEvent(80, 90)))
            for sid in ("a", "b", "c")
        }
        # a: onsets only; b: no detections; c: missing from pred
        pred = {"a": ScoredEvents(onsets=((11, 0.9), (85, 0.4))), "b": ScoredEvents()}
        config = EdapConfig(tolerances=(1, 5, 20))
        expected = pooled_edap_table_oracle(pred, truth, config)
        monkeypatch.setattr(metric, "_rounds", spying_rounds)
        assert edap_table(pred, truth, config) == expected
        # at each tolerance only series a's onsets with a truth step within it
        # enter matching, in one call: 85 is 5 steps from 80, so tol 1 matches
        # 11 alone; no empty set (b's classes, c, a's offsets) enters
        assert sorted(entered) == [(11, 1), (11, 5), (11, 20), (85, 5), (85, 20)]

    def test_duplicate_lower_scored_prediction_never_raises_ap(self):
        pred, truth = single_series([(100, 0.9)], [100, 200])
        config = EdapConfig(tolerances=(5,), classes=("point",))
        base = edap(pred, truth, config)
        dup_pred, _ = single_series([(100, 0.9), (100, 0.4)], [100, 200])
        assert edap(dup_pred, truth, config) <= base

    @pytest.mark.parametrize(
        "step, message",
        [
            (2.7, r"truth\['s'\]\[0\]: step 2.7 is not an integer"),
            (True, r"truth\['s'\]\[0\]: step True is not an integer"),
        ],
        ids=["fraction", "bool"],
    )
    def test_truth_steps_must_be_integers(self, step, message):
        # an EventSet checks only its kind, so the scorer checks the truth
        # steps it matches instead of truncating 2.7 to 2 (within tol 1 of 1)
        pred = {"s": ScoredEvents(onsets=((1, 0.9),))}
        truth = {"s": EventSet("s", POINT, (PointEvent(step),))}
        config = EdapConfig(tolerances=(1,), classes=("point",))
        with pytest.raises(InvalidEvents, match=message):
            edap_table(pred, truth, config)

    def test_classes_are_distinct_names(self):
        with pytest.raises(InvalidSpec, match="expected distinct class names"):
            EdapConfig(tolerances=(5,), classes=("onset", "onset"))
        with pytest.raises(InvalidSpec, match="expected a sequence of class names"):
            EdapConfig(tolerances=(1,), classes="onset")
        assert EdapConfig(tolerances=(1,), classes=["offset", "onset"]).classes == (
            "offset", "onset"
        )

    @pytest.mark.parametrize("classes", [None, 3, ("onset", 3), ["onset", None]])
    def test_classes_must_be_a_sequence_of_strings(self, classes):
        with pytest.raises(InvalidSpec, match="expected a sequence of class names"):
            EdapConfig(tolerances=(1,), classes=classes)

    def test_bad_config(self):
        with pytest.raises(InvalidSpec):
            EdapConfig(tolerances=())
        with pytest.raises(InvalidSpec):
            EdapConfig(tolerances=(5, 5))
        with pytest.raises(InvalidSpec):
            EdapConfig(tolerances=(5,), classes=())
        with pytest.raises(InvalidSpec):
            EdapConfig(tolerances=(1.7, 3))
        with pytest.raises(InvalidSpec):
            EdapConfig(tolerances=("x",))
        with pytest.raises(InvalidSpec):
            EdapConfig(tolerances=(True,))
        with pytest.raises(InvalidSpec):
            EdapConfig(tolerances=5)
        with pytest.raises(InvalidSpec) as err:
            EdapConfig(tolerances=[1, float("inf")])
        assert str(err.value) == (
            "tolerances=[1, inf], expected nonempty ascending distinct positive ints"
        )
        assert EdapConfig(tolerances=(1.0, 3)).tolerances == (1, 3)


@st.composite
def prediction_problem(draw):
    truth = draw(st.lists(st.integers(0, 400), min_size=1, max_size=10))
    preds = draw(
        st.lists(
            st.tuples(st.integers(0, 400), st.floats(0.01, 1.0)),
            min_size=0,
            max_size=14,
        )
    )
    return preds, sorted(truth)


@st.composite
def pooled_problem(draw):
    """1-5 series of point or interval truth; some series have no predictions,
    and tied scores (0.0 and -0.0 among them) and duplicate steps are common."""
    point = draw(st.booleans())
    sids = draw(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=5, unique=True))
    detections = st.lists(
        st.tuples(st.integers(0, 30), st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0])),
        max_size=8,
    ).map(sorted)
    truth, pred = {}, {}
    for sid in sids:
        if point:
            steps = draw(st.lists(st.integers(0, 30), max_size=6))
            truth[sid] = EventSet(sid, POINT, tuple(PointEvent(t) for t in sorted(steps)))
        else:
            cuts = sorted(set(draw(st.lists(st.integers(0, 30), max_size=8))))
            events = tuple(IntervalEvent(a, b) for a, b in zip(cuts[::2], cuts[1::2]))
            truth[sid] = EventSet(sid, INTERVAL, events)
        if draw(st.booleans()):
            offsets = () if point else draw(detections)
            pred[sid] = ScoredEvents(onsets=draw(detections), offsets=offsets)
    tolerances = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True))
    classes = ("point",) if point else ("onset", "offset")
    return pred, truth, EdapConfig(tolerances=tuple(sorted(tolerances)), classes=classes)


@st.composite
def batch_problem(draw):
    """One truth and 0-4 prediction sets scored against it, every step offset
    by one base, some past 2**52; empty sets, series absent from a set,
    duplicate steps and tied scores (0.0 and -0.0 among them) are common."""
    base = draw(st.sampled_from([0, 2**52 - 3, 2**53 + 1, 2**63]))
    point = draw(st.booleans())
    sids = draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=4, unique=True))
    truth = {}
    for sid in sids:
        if point:
            steps = sorted(draw(st.lists(st.integers(0, 30), max_size=6)))
            truth[sid] = EventSet(sid, POINT, tuple(PointEvent(base + t) for t in steps))
        else:
            cuts = sorted(set(draw(st.lists(st.integers(0, 30), max_size=8))))
            events = tuple(
                IntervalEvent(base + a, base + b) for a, b in zip(cuts[::2], cuts[1::2])
            )
            truth[sid] = EventSet(sid, INTERVAL, events)
    detections = st.lists(
        st.tuples(
            st.integers(0, 30).map(lambda s: base + s),
            st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),
        ),
        max_size=6,
    ).map(sorted)
    preds = []
    for _ in range(draw(st.integers(0, 4))):
        preds.append({
            sid: ScoredEvents(onsets=draw(detections), offsets=() if point else draw(detections))
            for sid in draw(st.lists(st.sampled_from(sids), unique=True))
        })
    tolerances = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True))
    classes = ("point",) if point else ("onset", "offset")
    return preds, truth, EdapConfig(tolerances=tuple(sorted(tolerances)), classes=classes)


def hexed(tables):
    return [{key: value.hex() for key, value in table.items()} for table in tables]


def one_by_one_error(preds, truth, config):
    """The error that scoring each set through edap_table in turn raises first."""
    for pred in preds:
        try:
            edap_table(pred, truth, config)
        except EvregError as exc:
            return exc
    return None


def _point_truth(steps):
    return {
        sid: EventSet(sid, POINT, tuple(PointEvent(t) for t in sid_steps))
        for sid, sid_steps in steps.items()
    }


# (preds, truth, config) of a batch of three sets whose set k holds a fault
BATCH_FAULTS = {
    # set k has detections on a series unknown to truth, which raises before
    # the truth is read: here the read of the undefined offset class faults
    "unknown-series": lambda k: (
        [{"a": ScoredEvents(onsets=((1, 0.5),)), **({"zz": ScoredEvents(onsets=((2, 0.9),))}
          if i == k else {})} for i in range(3)],
        _point_truth({"a": (1,), "b": (4,)}),
        EdapConfig(tolerances=(1,), classes=("point", "offset")),
    ),
    # only set k has detections on b, whose truth step is fractional
    "bad-truth-step": lambda k: (
        [{"a": ScoredEvents(onsets=((1, 0.5),)), **({"b": ScoredEvents(onsets=((2, 0.9),))}
          if i == k else {})} for i in range(3)],
        _point_truth({"a": (1,), "b": (2.5,)}),
        EdapConfig(tolerances=(1,), classes=("point",)),
    ),
    # every set meets EmptyTruth, set k with no detections at all
    "empty-truth": lambda k: (
        [{"a": ScoredEvents(onsets=((1, 0.5),))} if i != k else {} for i in range(3)],
        _point_truth({"a": (), "b": ()}),
        EdapConfig(tolerances=(1,), classes=("point",)),
    ),
    # every set meets the undefined second class once its first is scored
    "bad-second-class": lambda k: (
        [{"a": ScoredEvents(onsets=((1, 0.5),)), **({"b": ScoredEvents(onsets=((2, 0.9),))}
          if i == k else {})} for i in range(3)],
        _point_truth({"a": (1,), "b": (2.5,)}),
        EdapConfig(tolerances=(1,), classes=("point", "offset")),
    ),
}


@st.composite
def faulty_problem(draw):
    """1-3 prediction sets against truth that may not score: series of
    either kind, so that a class may be undefined for one, with fractional
    steps among their integer ones, or with no events at all."""
    sids = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    steps = st.lists(st.sampled_from([0, 1, 2, 3, 5, 8, 0.5, 2.5]), max_size=4)
    truth = {}
    for sid in sids:
        chosen = draw(steps)
        if draw(st.booleans()):
            truth[sid] = EventSet(sid, POINT, tuple(PointEvent(t) for t in chosen))
        else:
            events = tuple(IntervalEvent(a, b) for a, b in zip(chosen[::2], chosen[1::2]))
            truth[sid] = EventSet(sid, INTERVAL, events)
    detections = st.lists(
        st.tuples(st.integers(0, 8), st.sampled_from([0.25, 0.5, 1.0])), max_size=3
    ).map(sorted)
    preds = [
        {sid: ScoredEvents(onsets=draw(detections), offsets=draw(detections))
         for sid in draw(st.lists(st.sampled_from(sids), unique=True))}
        for _ in range(draw(st.integers(1, 3)))
    ]
    classes = draw(st.sampled_from([("point",), ("onset", "offset"), ("offset", "point")]))
    return preds, truth, EdapConfig(tolerances=(1, 3), classes=classes)


def assert_raises_as(expected, score):
    with pytest.raises(EvregError) as err:
        score()
    assert (type(err.value), str(err.value)) == (type(expected), str(expected))


class TestEdapBatch:
    """edap_arrays scores several prediction sets as edap scores each."""

    @given(batch_problem())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_oracle_set_by_set(self, problem):
        preds, truth, config = problem
        sids = sorted(truth)
        # distinct sets per cell, as int64 arrays where their steps fit
        cells = [as_arrays(p, sids) for p in preds if all(
            s < 2**62 for r in p.values() for s, _ in r.onsets + r.offsets)]
        try:
            expected = [pooled_edap_table_oracle(p, truth, config) for p in preds]
        except EmptyTruth:
            with pytest.raises(EmptyTruth):
                edap_table(preds[0], truth, config)
            if cells:
                with pytest.raises(EmptyTruth):
                    metric.edap_arrays(sids, cells, truth, config)
            return
        got = [edap_table(p, truth, config) for p in preds]
        assert hexed(got) == hexed(expected)
        assert [list(table) for table in got] == [list(table) for table in expected]
        if len(cells) == len(preds):
            scores = metric.edap_arrays(sids, cells, truth, config)
            assert [v.hex() for v in scores] == [edap(p, truth, config).hex() for p in preds]

    def test_empty_batch(self):
        truth = _point_truth({"a": ()})
        assert metric.edap_arrays(["a"], [], truth, EdapConfig(tolerances=(1,))) == []
        assert metric.edap_arrays(["zz"], [], truth, EdapConfig(tolerances=(1,))) == []

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("fault", BATCH_FAULTS)
    def test_raises_as_scoring_one_by_one(self, fault, k):
        preds, truth, config = BATCH_FAULTS[fault](k)
        sids = sorted(set(truth).union(*preds))
        # every set of the arrays holds every series of sids
        records = [{sid: p.get(sid, ScoredEvents()) for sid in sids} for p in preds]
        expected = one_by_one_error(records, truth, config)
        assert expected is not None
        cells = [as_arrays(p, sids) for p in preds]
        assert_raises_as(expected, lambda: metric.edap_arrays(sids, cells, truth, config))

    @given(faulty_problem())
    @settings(max_examples=300, deadline=None)
    def test_faulty_truth_raises_as_scoring_one_by_one(self, problem):
        preds, truth, config = problem
        sids = sorted(truth)
        cells = [as_arrays(p, sids) for p in preds]
        expected = one_by_one_error(preds, truth, config)
        if expected is None:
            scores = metric.edap_arrays(sids, cells, truth, config)
            assert [v.hex() for v in scores] == [edap(p, truth, config).hex() for p in preds]
        else:
            assert_raises_as(expected, lambda: metric.edap_arrays(sids, cells, truth, config))

    def test_truth_is_read_and_checked_once(self, monkeypatch):
        checked, read = [], []
        check, by_class = metric.checked_steps, EventSet.by_class

        def counting_check(steps, name):
            checked.append(name)
            return check(steps, name)

        def counting_read(self, cls):
            read.append((self.series_id, cls))
            return by_class(self, cls)

        monkeypatch.setattr(metric, "checked_steps", counting_check)
        monkeypatch.setattr(EventSet, "by_class", counting_read)
        truth = _point_truth({"a": (1, 5), "b": (3,)})
        preds = [{"a": ScoredEvents(onsets=((1, v),)), "b": ScoredEvents(onsets=((3, v),))}
                 for v in (0.1, 0.5, 0.9)]
        config = EdapConfig(tolerances=(1, 2), classes=("point",))
        cells = [as_arrays(p, ["a", "b"]) for p in preds]
        for score in (lambda: metric.edap_arrays(["a", "b"], cells, truth, config),
                      lambda: edap_table(preds[0], truth, config)):
            checked.clear()
            read.clear()
            score()
            assert checked == ["truth['a']", "truth['b']"]
            assert read == [("a", "point"), ("b", "point")]


class TestEdapProperties:
    @given(pooled_problem())
    @example(
        (
            {
                "a": ScoredEvents(onsets=((3, 0.0), (3, -0.0), (5, -0.0), (5, 0.5))),
                "b": ScoredEvents(onsets=((2, -0.0), (4, 0.0), (4, 0.5))),
            },
            {
                "a": EventSet("a", POINT, (PointEvent(3), PointEvent(3), PointEvent(6))),
                "b": EventSet("b", POINT, (PointEvent(4),)),
                "c": EventSet("c", POINT, (PointEvent(1),)),
            },
            EdapConfig(tolerances=(1, 2), classes=("point",)),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_pooled_oracle(self, problem):
        pred, truth, config = problem
        try:
            expected = pooled_edap_table_oracle(pred, truth, config)
        except EmptyTruth:
            with pytest.raises(EmptyTruth):
                edap_table(pred, truth, config)
            return
        assert edap_table(pred, truth, config) == expected

    @given(prediction_problem(), st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_tolerance(self, problem, tol_a, tol_b):
        preds, truth = problem
        lo, hi = sorted((tol_a, tol_b))
        pred_map, truth_map = single_series(preds, truth)
        config_lo = EdapConfig(tolerances=(lo,), classes=("point",))
        config_hi = EdapConfig(tolerances=(hi,), classes=("point",))
        assert edap(pred_map, truth_map, config_lo) <= edap(
            pred_map, truth_map, config_hi
        ) + 1e-12

    @given(prediction_problem(), st.integers(1, 40))
    @example(problem=([(0, 0.01), (2, 0.010000000000000002)], [0]), tol=1)
    @settings(max_examples=100, deadline=None)
    def test_rank_invariance_under_monotone_score_transform(self, problem, tol):
        preds, truth = problem
        config = EdapConfig(tolerances=(tol,), classes=("point",))
        pred_map, truth_map = single_series(preds, truth)
        # map each distinct score through a cubic of its rank: strictly
        # increasing by construction, whereas a float formula such as
        # 0.25 * v**3 + 2 rounds close scores to one value and makes a tie
        rank = {v: i for i, v in enumerate(sorted({v for _, v in preds}))}
        transformed = [(s, 2.0 + 0.25 * (rank[v] + 1) ** 3) for s, v in preds]
        t_map, _ = single_series(transformed, truth)
        assert edap(pred_map, truth_map, config) == pytest.approx(
            edap(t_map, truth_map, config)
        )

    @given(prediction_problem(), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_bounded(self, problem, tol):
        preds, truth = problem
        pred_map, truth_map = single_series(preds, truth)
        score = edap(pred_map, truth_map, EdapConfig(tolerances=(tol,), classes=("point",)))
        assert 0.0 <= score <= 1.0


class TestPrfAtTolerance:
    def test_hand_counts(self):
        pred = [(100, 0.9), (300, 0.8), (400, 0.7)]
        truth = [100, 200]
        p, r, f1 = prf_at_tolerance(pred, truth, 10)
        assert p == pytest.approx(1 / 3)
        assert r == pytest.approx(1 / 2)
        assert f1 == pytest.approx(0.4)

    def test_perfect(self):
        assert prf_at_tolerance([(5, 1.0)], [5], 2) == (1.0, 1.0, 1.0)

    def test_no_predictions_with_truth(self):
        assert prf_at_tolerance([], [1, 2, 3], 2) == (0.0, 0.0, 0.0)

    def test_both_empty(self):
        assert prf_at_tolerance([], [], 2) == (1.0, 1.0, 1.0)

    def test_counts_all_empty(self):
        assert prf_from_counts(0, 0, 0) == (1.0, 1.0, 1.0)

    def test_counts_no_predictions(self):
        assert prf_from_counts(0, 0, 3) == (0.0, 0.0, 0.0)

    def test_counts_no_truth(self):
        assert prf_from_counts(0, 2, 0) == (0.0, 0.0, 0.0)
