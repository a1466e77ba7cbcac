import bisect
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evreg import metric
from evreg.errors import EmptyTruth, InvalidEvents, InvalidSpec
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


# steps where float64 no longer holds every integer (2**53 on), past int64
# (2**63 on) and past the float range (10**400)
HUGE_BASES = [0, 2**53 - 3, 2**63 - 2, 2**63, 2**64 + 1, 10**30, 10**400]


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

    @pytest.mark.parametrize("tol", [float("nan"), True, np.True_, "1", None, -0.5])
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

    @given(st.lists(st.booleans(), max_size=300), st.integers(1, 400))
    @settings(max_examples=200, deadline=None)
    def test_bits_of_the_running_sum(self, flags, num_truth):
        got = average_precision(flags, num_truth)
        want = loop_average_precision(flags, num_truth)
        assert type(got) is float and struct.pack("<d", got) == struct.pack("<d", want)


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
        ranked, matched = [], []

        def counting_rank(pairs):
            ranked.append(tuple(pairs))
            return rank(pairs)

        def counting_greedy(steps, truth, tol):
            matched.append((tuple(steps), tuple(truth), tol))
            return greedy(steps, truth, tol)

        rank, greedy = metric._ranked, metric._greedy
        truth = {
            sid: EventSet(sid, INTERVAL, (IntervalEvent(10, 50), IntervalEvent(80, 90)))
            for sid in ("a", "b", "c")
        }
        # a: onsets only; b: no detections; c: missing from pred
        pred = {"a": ScoredEvents(onsets=((11, 0.9), (85, 0.4))), "b": ScoredEvents()}
        config = EdapConfig(tolerances=(1, 5, 20))
        expected = pooled_edap_table_oracle(pred, truth, config)
        monkeypatch.setattr(metric, "_ranked", counting_rank)
        monkeypatch.setattr(metric, "_greedy", counting_greedy)
        assert edap_table(pred, truth, config) == expected
        # series a's onsets are ranked once, and at each tolerance the steps
        # with a truth step within it are matched once: 85 is 5 steps from
        # 80, so tol 1 matches 11 alone; no empty set (b's classes, c, a's
        # offsets) is ranked or matched
        assert ranked == [((11, 0.9), (85, 0.4))]
        assert matched == [
            ((11,), (10, 80), 1), ((11, 85), (10, 80), 5), ((11, 85), (10, 80), 20),
        ]

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
