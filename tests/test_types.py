import ast
import pickle
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import evreg
from evreg.data import load_scored_events, save_events
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
    event_fault,
    points_from_intervals,
    step_fault,
    validate_events,
    validate_series,
)


def make_series(**channels):
    return TimeSeries.build("s", channels)


class TestValidateSeries:
    def test_two_finite_channels_ok(self):
        s = make_series(a=np.zeros(100), b=np.ones(100))
        validate_series(s)  # no raise

    @pytest.mark.parametrize("values,message", [
        (np.array([1 + 1j, 2]), "channel 'a' of series 's' must hold real numbers"),
        ([[1.0], [1.0, 2.0]], "channel 'a' of series 's' must hold real numbers"),
        (5.0, "channel 'a' of series 's' must be 1-D, got shape ()"),
    ], ids=["complex", "ragged", "scalar"])
    def test_build_takes_one_real_row_per_channel(self, values, message):
        with pytest.raises(NonFiniteValue) as err:
            make_series(a=values)
        assert str(err.value) == message

    def test_num_steps_past_the_digit_limit_is_shown(self):
        with pytest.raises(EmptySeries, match=r"\(num_steps=<int of 16610 bits>, channels=1\)"):
            validate_series(TimeSeries("s", -10**5000, {"a": np.zeros(3)}))
        with pytest.raises(LengthMismatch, match=r"expected \(<int of 16610 bits>,\)$"):
            validate_series(TimeSeries("s", 10**5000, {"a": np.zeros(3)}))

    def test_ragged_channel_is_non_finite_value(self):
        with pytest.raises(NonFiniteValue, match="^channel 'a' of series 's' must hold real"):
            validate_series(TimeSeries("s", 2, {"a": [[1.0], [1.0, 2.0]]}))

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

    @pytest.mark.parametrize("events,num_steps,message", [
        (EventSet("s", INTERVAL), -10**5000, "num_steps=<int of 16610 bits> must be positive"),
        (EventSet("s", INTERVAL, (IntervalEvent(0, 10**5000),)), 8,
         "event [0, <int of 16610 bits>) outside [0, 8]"),
        (EventSet("s", POINT, (PointEvent(10**5000),)), 8,
         "point <int of 16610 bits> outside [0, 8)"),
    ], ids=["num_steps", "offset", "point"])
    def test_ints_past_the_digit_limit_are_out_of_range(self, events, num_steps, message):
        with pytest.raises(EventOutOfRange) as err:
            validate_events(events, num_steps)
        assert str(err.value) == message

    def test_step_fault_shows_an_int_past_the_digit_limit(self):
        assert step_fault(-10**5000) == "step <int of 16610 bits> is before step 0"

    @pytest.mark.parametrize("step, message", [
        (float("inf"), "step inf is not an integer"),
        (float("-inf"), "step -inf is not an integer"),
        (float("nan"), "step nan is not an integer"),
        (np.float64("inf"), "step inf is not an integer"),
        (np.float32("nan"), "step nan is not an integer"),
    ])
    def test_step_fault_names_a_non_finite_float(self, step, message):
        # int() of these raises OverflowError or ValueError
        assert step_fault(step) == message

    @pytest.mark.parametrize("kind, event, message", [
        (POINT, PointEvent(float("inf")), "step inf is not an integer"),
        (POINT, PointEvent(float("nan")), "step nan is not an integer"),
        (POINT, PointEvent(float("-inf")), "point -inf is before step 0"),
        (INTERVAL, IntervalEvent(0, float("inf")), "event [0, inf): step inf is not an integer"),
        (INTERVAL, IntervalEvent(float("nan"), 3), "event [nan, 3): step nan is not an integer"),
        (POINT, PointEvent(Decimal("Infinity")), "step Infinity is not an integer"),
        (POINT, PointEvent(Decimal("-Infinity")), "point -Infinity is before step 0"),
        (POINT, PointEvent(Decimal("NaN")), "step NaN is not an integer"),
        (POINT, PointEvent(Decimal("sNaN")), "step sNaN is not an integer"),
        (INTERVAL, IntervalEvent(0, Decimal("Infinity")),
         "event [0, Infinity): step Infinity is not an integer"),
        (INTERVAL, IntervalEvent(0, Decimal("-Infinity")),
         "event [0, -Infinity) has no positive duration"),
        (INTERVAL, IntervalEvent(0, Decimal("NaN")), "event [0, NaN): step NaN is not an integer"),
        (INTERVAL, IntervalEvent(0, Decimal("sNaN")), "event [0, sNaN): step sNaN is not an integer"),
    ])
    def test_event_fault_without_num_steps_names_a_non_finite_step(self, kind, event, message):
        index, error = event_fault(EventSet("s", kind, (event,)))
        assert (index, type(error), str(error)) == (0, InvalidEvents, message)

    @pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN", "sNaN"])
    def test_step_fault_names_a_non_finite_decimal(self, text):
        # int() raises OverflowError or ValueError, and a NaN's < raises InvalidOperation
        assert step_fault(Decimal(text)) == f"step {text} is not an integer"

    @pytest.mark.parametrize("kind, event, error, message", [
        (POINT, PointEvent(Decimal("NaN")), InvalidEvents, "step NaN is not an integer"),
        (POINT, PointEvent(Decimal("Infinity")), EventOutOfRange, "point Infinity outside [0, 8)"),
        (INTERVAL, IntervalEvent(Decimal("sNaN"), 3), InvalidEvents,
         "event [sNaN, 3): step sNaN is not an integer"),
    ])
    def test_validate_events_names_a_non_finite_decimal_step(self, kind, event, error, message):
        with pytest.raises(error) as err:
            validate_events(EventSet("s", kind, (event,)), 8)
        assert str(err.value) == message


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

    @pytest.mark.parametrize("step", [float, np.float64, np.float32, Decimal, np.int64])
    def test_integral_steps_of_any_type_label_as_ints(self, step):
        # validate_events accepts these steps, so they slice as the ints they equal
        ev = EventSet("s", INTERVAL, (IntervalEvent(step(0), step(3)), IntervalEvent(step(5), step(6))))
        assert derive_state_labels(ev, 8).tolist() == [1, 1, 1, 0, 0, 1, 0, 0]

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
        pts = points_from_intervals(ev)
        assert pts.kind == POINT
        assert [e.step for e in pts.events] == [2, 7]
        assert pts.events[0].score == 0.5


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
        for pairs in ([(1, "x")], [(1,)]):
            with pytest.raises(InvalidEvents, match=r"^onsets must hold \(step, score\) pairs"):
                ScoredEvents(onsets=pairs)
        # step_fault names a NaN step before int() could raise for it
        with pytest.raises(InvalidEvents, match=r"^onsets\[0\]: step nan is not an integer$"):
            ScoredEvents(onsets=[(float("nan"), 0.5)])

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


class TestTrustedScoredEvents:
    """ScoredEvents._trusted: decoder records set without the checks."""

    onsets = ((1, 0.5), (4, -0.0), (9, 2.0))
    offsets = ((2, 0.25),)

    def test_equals_hashes_and_pickles_as_its_checked_twin(self):
        trusted = ScoredEvents._trusted(self.onsets, self.offsets)
        checked = ScoredEvents(onsets=list(self.onsets), offsets=list(self.offsets))
        assert trusted == checked and hash(trusted) == hash(checked)
        assert pickle.loads(pickle.dumps(trusted)) == checked
        assert ScoredEvents._trusted(()) == ScoredEvents()

    def test_survives_the_events_csv_round_trip(self, tmp_path):
        path = tmp_path / "predictions.csv"
        records = {
            "a": ScoredEvents._trusted(self.onsets, self.offsets),
            "b": ScoredEvents._trusted(()),
        }
        save_events(path, records)
        assert load_scored_events(path) == records

    @pytest.mark.parametrize("pairs,message", [
        ([(5, 1.0), (2, 1.0)], "must be sorted by step"),
        ([(1, float("inf"))], r"\[0\]: score inf is not finite"),
        ([(0, 0.5), (True, 0.5)], r"\[1\]: step True is not an integer"),
    ])
    @pytest.mark.parametrize("slot", ["onsets", "offsets"])
    def test_public_constructor_keeps_every_check(self, slot, pairs, message):
        with pytest.raises(InvalidEvents, match=message):
            ScoredEvents(**{slot: pairs})


def test_only_the_decoders_build_trusted_records():
    # _trusted skips the checks, so only decode.py, whose pairs come from
    # checked arrays, may name it
    package = Path(evreg.__file__).parent
    named = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "_trusted") or (
                isinstance(node, ast.Name) and node.id == "_trusted"
            ):
                named.setdefault(path.relative_to(package).as_posix(), []).append(node.lineno)
    assert "decode.py" in named
    assert {name: lines for name, lines in named.items() if name != "decode.py"} == {}
