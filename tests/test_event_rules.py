"""The one event-rule scan (types.event_fault) against the loops it replaced.

The oracle below is the per-kind loop code that validate_events and
load_events ran before the rules moved into one scan: a length-free fault
helper per kind, wrapped by a loop that first checks the item type and the
series range.  Both entry points must report the same error type, message
and (for load_events) line as the oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evreg.data import load_events
from evreg.errors import EventOutOfRange, InvalidEvents
from evreg.types import INTERVAL, POINT, EventSet, IntervalEvent, PointEvent, validate_events


def interval_fault_oracle(ev, prev_offset):
    if ev.onset < 0:
        return f"event [{ev.onset}, {ev.offset}) starts before step 0"
    if ev.onset >= ev.offset:
        return f"event [{ev.onset}, {ev.offset}) has no positive duration"
    if prev_offset is not None and ev.onset < prev_offset:
        return (
            f"event at onset {ev.onset} overlaps or precedes the previous "
            f"event ending at {prev_offset}"
        )
    return None


def point_fault_oracle(ev, prev_step):
    if ev.step < 0:
        return f"point {ev.step} is before step 0"
    if prev_step is not None and ev.step < prev_step:
        return f"point {ev.step} precedes previous {prev_step}"
    return None


def validate_events_oracle(events, num_steps):
    if num_steps < 1:
        raise EventOutOfRange(f"num_steps={num_steps} must be positive")
    if events.kind == INTERVAL:
        prev_offset = None
        for ev in events.events:
            if not isinstance(ev, IntervalEvent):
                raise InvalidEvents(f"expected IntervalEvent, got {type(ev).__name__}")
            if not (0 <= ev.onset and ev.offset <= num_steps):
                raise EventOutOfRange(
                    f"event [{ev.onset}, {ev.offset}) outside [0, {num_steps}]"
                )
            fault = interval_fault_oracle(ev, prev_offset)
            if fault is not None:
                raise InvalidEvents(fault)
            prev_offset = ev.offset
    else:
        prev_step = None
        for ev in events.events:
            if not isinstance(ev, PointEvent):
                raise InvalidEvents(f"expected PointEvent, got {type(ev).__name__}")
            if not (0 <= ev.step < num_steps):
                raise EventOutOfRange(f"point {ev.step} outside [0, {num_steps})")
            fault = point_fault_oracle(ev, prev_step)
            if fault is not None:
                raise InvalidEvents(fault)
            prev_step = ev.step


def load_fault_oracle(events):
    """(index, message) of the first event the length-free rules reject, or None."""
    prev = None
    for i, ev in enumerate(events.events):
        if events.kind == INTERVAL:
            fault, prev_next = interval_fault_oracle(ev, prev), ev.offset
        else:
            fault, prev_next = point_fault_oracle(ev, prev), ev.step
        if fault is not None:
            return i, fault
        prev = prev_next
    return None


def outcome(check, *args):
    try:
        check(*args)
    except (InvalidEvents, EventOutOfRange) as exc:
        return type(exc), str(exc)
    return None


# steps in a narrow range, so negative, zero-length, touching, overlapping,
# unsorted and out-of-range events all come up often
_STEPS = st.integers(-3, 14)
_INTERVALS = st.builds(IntervalEvent, _STEPS, _STEPS)
_POINTS = st.builds(PointEvent, _STEPS)
_EVENT_SETS = st.one_of(
    st.lists(_INTERVALS, max_size=6).map(lambda evs: EventSet("s", INTERVAL, evs)),
    st.lists(_POINTS, max_size=6).map(lambda evs: EventSet("s", POINT, evs)),
)
_ANY_ITEMS = st.lists(st.one_of(_INTERVALS, _POINTS, st.just(3), st.just(None)), max_size=6)


@settings(max_examples=500, deadline=None)
@given(events=_EVENT_SETS, num_steps=st.integers(-1, 12))
def test_validate_events_matches_oracle(events, num_steps):
    assert outcome(validate_events, events, num_steps) == outcome(
        validate_events_oracle, events, num_steps
    )


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from([INTERVAL, POINT]), items=_ANY_ITEMS, num_steps=st.integers(1, 12))
def test_validate_events_matches_oracle_on_wrong_types(kind, items, num_steps):
    events = EventSet("s", kind, items)
    assert outcome(validate_events, events, num_steps) == outcome(
        validate_events_oracle, events, num_steps
    )


def _rows(events):
    if events.kind == POINT:
        return [f"s,point,{ev.step},\n" for ev in events.events]
    return [f"s,{k},{step},\n" for ev in events.events
            for k, step in (("onset", ev.onset), ("offset", ev.offset))]


@settings(max_examples=300, deadline=None)
@given(events=_EVENT_SETS.filter(lambda evs: len(evs) > 0))
def test_load_events_matches_oracle(tmp_path_factory, events):
    path = tmp_path_factory.mktemp("events") / "events.csv"
    path.write_text("series_id,event,step,score\n" + "".join(_rows(events)))
    expected = load_fault_oracle(events)
    if expected is None:
        assert load_events(path) == {"s": events}
        return
    index, fault = expected
    # the header is line 1; an interval is reported at its onset row
    line = 2 + index * (2 if events.kind == INTERVAL else 1)
    with pytest.raises(InvalidEvents) as err:
        load_events(path)
    assert type(err.value) is InvalidEvents
    assert str(err.value) == f"{path}: series 's', line {line}: {fault}"
