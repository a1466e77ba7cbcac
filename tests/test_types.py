import numpy as np
import pytest

from evreg.errors import (
    EmptySeries,
    EventOutOfRange,
    InvalidEvents,
    LengthMismatch,
    NonFiniteValue,
)
from evreg.types import (
    INTERVAL,
    POINT,
    EventSet,
    IntervalEvent,
    PointEvent,
    ScoredEvents,
    TimeSeries,
    derive_state_labels,
    points_from_intervals,
    validate_events,
    validate_series,
)


def make_series(**channels):
    return TimeSeries.build("s", channels)


class TestValidateSeries:
    def test_two_finite_channels_ok(self):
        s = make_series(a=np.zeros(100), b=np.ones(100))
        validate_series(s)  # no raise

    def test_length_mismatch(self):
        s = TimeSeries("s", 100, {"a": np.zeros(100), "b": np.zeros(99)})
        with pytest.raises(LengthMismatch):
            validate_series(s)

    def test_nan_rejected(self):
        values = np.zeros(10)
        values[3] = np.nan
        s = TimeSeries("s", 10, {"a": values})
        with pytest.raises(NonFiniteValue):
            validate_series(s)

    def test_inf_rejected(self):
        values = np.zeros(10)
        values[0] = np.inf
        with pytest.raises(NonFiniteValue):
            validate_series(TimeSeries("s", 10, {"a": values}))

    def test_no_channels_rejected(self):
        with pytest.raises(EmptySeries):
            validate_series(TimeSeries("s", 10, {}))

    def test_zero_steps_rejected(self):
        with pytest.raises(EmptySeries):
            validate_series(TimeSeries("s", 0, {"a": np.zeros(0)}))

    def test_idempotent(self):
        s = make_series(a=np.arange(5.0))
        validate_series(s)
        validate_series(s)

    def test_as_array_stacks_in_order(self):
        s = make_series(a=np.zeros(4), b=np.ones(4))
        arr = s.as_array()
        assert arr.shape == (2, 4)
        assert arr[1, 0] == 1.0


class TestValidateEvents:
    def test_sorted_disjoint_ok(self):
        ev = EventSet("s", INTERVAL, (IntervalEvent(0, 3), IntervalEvent(3, 5)))
        validate_events(ev, 10)

    def test_offset_may_touch_end(self):
        validate_events(EventSet("s", INTERVAL, (IntervalEvent(4, 8),)), 8)

    def test_offset_beyond_end(self):
        with pytest.raises(EventOutOfRange):
            validate_events(EventSet("s", INTERVAL, (IntervalEvent(4, 9),)), 8)

    def test_negative_onset(self):
        with pytest.raises(EventOutOfRange):
            validate_events(EventSet("s", INTERVAL, (IntervalEvent(-1, 3),)), 8)

    def test_zero_duration_rejected(self):
        with pytest.raises(InvalidEvents):
            validate_events(EventSet("s", INTERVAL, (IntervalEvent(3, 3),)), 8)

    def test_overlap_rejected(self):
        ev = EventSet("s", INTERVAL, (IntervalEvent(0, 4), IntervalEvent(2, 6)))
        with pytest.raises(InvalidEvents):
            validate_events(ev, 8)

    def test_unsorted_rejected(self):
        ev = EventSet("s", INTERVAL, (IntervalEvent(5, 6), IntervalEvent(0, 2)))
        with pytest.raises(InvalidEvents):
            validate_events(ev, 8)

    def test_point_in_range(self):
        validate_events(EventSet("s", POINT, (PointEvent(0), PointEvent(7))), 8)

    def test_point_at_end_rejected(self):
        with pytest.raises(EventOutOfRange):
            validate_events(EventSet("s", POINT, (PointEvent(8),)), 8)

    def test_bad_kind(self):
        with pytest.raises(InvalidEvents):
            EventSet("s", "other", ())

    @pytest.mark.parametrize("kind,events,error,message", [
        # int() would truncate each of these: a truth point at 2.7 scored as 2
        (POINT, (PointEvent(2.7),), InvalidEvents, "step 2.7 is not an integer"),
        (POINT, (PointEvent(1), PointEvent(np.float64(3.5))), InvalidEvents,
         "step 3.5 is not an integer"),
        (POINT, (PointEvent(True),), InvalidEvents, "step True is not an integer"),
        (POINT, (PointEvent(np.bool_(False)),), InvalidEvents, "step False is not an integer"),
        (INTERVAL, (IntervalEvent(2.5, 4),), InvalidEvents,
         "event [2.5, 4): step 2.5 is not an integer"),
        (INTERVAL, (IntervalEvent(0, 2), IntervalEvent(3, 4.25)), InvalidEvents,
         "event [3, 4.25): step 4.25 is not an integer"),
        (INTERVAL, (IntervalEvent(False, True),), InvalidEvents,
         "event [False, True): step False is not an integer"),
        (INTERVAL, (IntervalEvent(0, np.True_),), InvalidEvents,
         "event [0, True): step True is not an integer"),
        # the range check still comes first, and the old messages stand
        (POINT, (PointEvent(9.5),), EventOutOfRange, "point 9.5 outside [0, 8)"),
        (INTERVAL, (IntervalEvent(4.5, 9),), EventOutOfRange, "event [4.5, 9) outside [0, 8]"),
        (INTERVAL, (IntervalEvent(5.5, 2.5),), InvalidEvents,
         "event [5.5, 2.5) has no positive duration"),
    ])
    def test_steps_must_be_integers(self, kind, events, error, message):
        with pytest.raises(error) as err:
            validate_events(EventSet("s", kind, events), 8)
        assert type(err.value) is error and str(err.value) == message

    @pytest.mark.parametrize("events", [
        EventSet("s", POINT, (PointEvent(np.int64(1)), PointEvent(2.0), PointEvent(np.float64(5.0)))),
        EventSet("s", INTERVAL, (IntervalEvent(np.int32(0), 2.0), IntervalEvent(2, np.int64(8)))),
    ])
    def test_integral_steps_of_any_type_pass(self, events):
        validate_events(events, 8)


class TestDeriveStateLabels:
    def test_empty(self):
        labels = derive_state_labels(EventSet("s", INTERVAL, ()), 5)
        assert labels.tolist() == [0, 0, 0, 0, 0]

    def test_half_open(self):
        ev = EventSet("s", INTERVAL, (IntervalEvent(2, 5),))
        assert derive_state_labels(ev, 8).tolist() == [0, 0, 1, 1, 1, 0, 0, 0]

    def test_full_cover(self):
        ev = EventSet("s", INTERVAL, (IntervalEvent(0, 8),))
        assert derive_state_labels(ev, 8).tolist() == [1] * 8

    def test_point_kind_rejected(self):
        with pytest.raises(InvalidEvents):
            derive_state_labels(EventSet("s", POINT, (PointEvent(1),)), 4)

    def test_changepoint_recovery(self):
        # extracting label change-points recovers the original pairs when
        # events are separated by at least one step
        rng = np.random.default_rng(7)
        for _ in range(50):
            num_steps = int(rng.integers(10, 200))
            events = []
            t = int(rng.integers(0, 3))
            while t < num_steps - 2:
                onset = t
                offset = int(min(num_steps, onset + rng.integers(1, 10)))
                events.append(IntervalEvent(onset, offset))
                t = offset + int(rng.integers(1, 10))
            ev = EventSet("s", INTERVAL, tuple(events))
            labels = derive_state_labels(ev, num_steps)
            padded = np.concatenate([[0], labels, [0]])
            rises = np.flatnonzero(np.diff(padded) == 1).tolist()
            falls = np.flatnonzero(np.diff(padded) == -1).tolist()
            assert rises == [e.onset for e in events]
            assert falls == [min(e.offset, num_steps) for e in events]


class TestPointsFromIntervals:
    def test_onset_projection(self):
        ev = EventSet("s", INTERVAL, (IntervalEvent(2, 5, 0.5), IntervalEvent(7, 9)))
        pts = points_from_intervals(ev, "onset")
        assert pts.kind == POINT
        assert [e.step for e in pts.events] == [2, 7]
        assert pts.events[0].score == 0.5

    def test_offset_projection(self):
        ev = EventSet("s", INTERVAL, (IntervalEvent(2, 5),))
        assert points_from_intervals(ev, "offset").events == (PointEvent(5),)

    def test_bad_which(self):
        ev = EventSet("s", INTERVAL, ())
        with pytest.raises(InvalidEvents):
            points_from_intervals(ev, "middle")


class TestEventSetByClass:
    def test_interval_classes(self):
        ev = EventSet("s", INTERVAL, (IntervalEvent(2, 5), IntervalEvent(7, 9)))
        assert ev.by_class("onset") == [2, 7]
        assert ev.by_class("offset") == [5, 9]

    def test_point_classes(self):
        ev = EventSet("s", POINT, (PointEvent(3), PointEvent(8)))
        assert ev.by_class("onset") == [3, 8]
        assert ev.by_class("point") == [3, 8]

    @pytest.mark.parametrize(
        "kind, cls", [(INTERVAL, "point"), (INTERVAL, "label"), (POINT, "offset")]
    )
    def test_undefined_class(self, kind, cls):
        with pytest.raises(InvalidEvents, match=f"undefined for {kind} truth"):
            EventSet("s", kind).by_class(cls)


class TestScoredEvents:
    def test_sorted_required(self):
        with pytest.raises(InvalidEvents):
            ScoredEvents(onsets=((5, 1.0), (2, 1.0)))

    def test_finite_scores_required(self):
        with pytest.raises(InvalidEvents):
            ScoredEvents(onsets=((1, float("nan")),))
        # a pair that does not convert to (int, float) is no raw ValueError either
        for pairs in ([(float("nan"), 0.5)], [(1, "x")], [(1,)]):
            with pytest.raises(InvalidEvents, match=r"^onsets must hold \(step, score\) pairs"):
                ScoredEvents(onsets=pairs)

    def test_negative_step_rejected(self):
        # a step before 0 could otherwise match truth near the series start
        with pytest.raises(InvalidEvents, match=r"^onsets\[0\]: step -3 is before step 0$"):
            ScoredEvents(onsets=((-3, 0.9), (5, 0.5)), offsets=((9, 0.4),))

    @pytest.mark.parametrize("step,shown", [
        (1.5, "1.5"), (True, "True"), (False, "False"), (np.bool_(True), "True"),
        (np.float64(2.25), "2.25"), (-0.5, "-0.5"),
    ])
    @pytest.mark.parametrize("slot", ["onsets", "offsets"])
    def test_fractional_and_boolean_steps_rejected(self, step, shown, slot):
        # int() would truncate them: a detection at 1.5 would match as 1
        pairs = [(0, 0.9), (step, 0.5)]
        with pytest.raises(InvalidEvents, match=rf"^{slot}\[1\]: step {shown} is not an integer$"):
            ScoredEvents(**{slot: pairs})

    @pytest.mark.parametrize("step", [2, np.int64(2), np.int32(2), 2.0, np.float64(2.0)])
    def test_integral_steps_kept_as_int(self, step):
        se = ScoredEvents(onsets=[(step, np.float64(0.5))], offsets=[(step, 1)])
        assert se.onsets == ((2, 0.5),) and se.offsets == ((2, 1.0),)
        assert type(se.onsets[0][0]) is int and type(se.onsets[0][1]) is float

    def test_by_class(self):
        se = ScoredEvents(onsets=((1, 0.5),), offsets=((2, 0.25),))
        assert se.by_class("onset") == ((1, 0.5),)
        assert se.by_class("point") == ((1, 0.5),)
        assert se.by_class("offset") == ((2, 0.25),)
        assert len(se) == 2
