"""Core containers: time series, event sets, and scored detections.

Conventions used throughout the package:

* A series holds one or more equally long float64 channels sampled on a
  shared integer step axis ``0 .. num_steps - 1``.
* Interval events are half-open: the event covers ``[onset, offset)`` so
  ``offset`` is the first step after the event.  ``offset == num_steps`` is
  legal (the event runs to the end of the series); zero-duration intervals
  are not.
* Point events mark a single step in ``[0, num_steps)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DataError,
    EmptySeries,
    EventOutOfRange,
    InvalidEvents,
    LengthMismatch,
    NonFiniteValue,
)
from .signal import real_array, shown

INTERVAL = "interval"
POINT = "point"


@dataclass(frozen=True)
class TimeSeries:
    """A named multichannel series on a shared step axis.

    channels maps channel name to a float64 array of length num_steps;
    insertion order is the canonical channel order.
    """

    series_id: str
    num_steps: int
    channels: Mapping[str, np.ndarray]

    @classmethod
    def build(
        cls, series_id: str, channels: Mapping[str, Iterable[float]]
    ) -> "TimeSeries":
        """Construct from raw channel data, deriving num_steps and validating."""
        converted = {}
        for name, values in channels.items():
            where = f"channel {name!r} of series {series_id!r}"
            converted[name] = real_array(values, where, 1, NonFiniteValue)
        if not converted:
            raise EmptySeries(f"series {series_id!r} has no channels")
        num_steps = len(next(iter(converted.values())))
        series = cls(series_id, num_steps, converted)
        validate_series(series)
        return series

    @property
    def channel_names(self) -> tuple[str, ...]:
        return tuple(self.channels)

    def as_array(self) -> np.ndarray:
        """Stack channels into a (num_channels, num_steps) float64 array."""
        return np.stack(
            [np.asarray(self.channels[name], dtype=np.float64) for name in self.channels]
        )


def validate_series(series: TimeSeries) -> None:
    """Check the TimeSeries invariants, raising on the first violation.

    Check order: emptiness, channel lengths, finiteness.
    """
    if not series.channels or series.num_steps < 1:
        raise EmptySeries(
            f"series {series.series_id!r} is empty "
            f"(num_steps={shown(series.num_steps)}, channels={len(series.channels)})"
        )
    for name, values in series.channels.items():
        where = f"channel {name!r} of series {series.series_id!r}"
        arr = real_array(values, where, None, NonFiniteValue)
        if arr.ndim != 1 or len(arr) != series.num_steps:
            raise LengthMismatch(
                f"{where} has length {arr.shape}, expected ({shown(series.num_steps)},)"
            )
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise NonFiniteValue(f"{where} is non-finite at step {bad}")


@dataclass(frozen=True)
class IntervalEvent:
    """One half-open event [onset, offset); score is optional metadata."""

    onset: int
    offset: int
    score: float | None = None


@dataclass(frozen=True)
class PointEvent:
    """One instantaneous event at a single step."""

    step: int
    score: float | None = None


@dataclass(frozen=True)
class EventSet:
    """All ground-truth events of one series, either interval or point kind."""

    series_id: str
    kind: str
    events: tuple = ()

    def __post_init__(self):
        if self.kind not in (INTERVAL, POINT):
            raise InvalidEvents(f"unknown event kind {self.kind!r}")
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def by_class(self, cls: str) -> list[int]:
        """Event steps for one class name: 'onset' or 'offset' of interval
        events, 'onset' or 'point' of point events."""
        if self.kind == INTERVAL:
            if cls == "onset":
                return [ev.onset for ev in self.events]
            if cls == "offset":
                return [ev.offset for ev in self.events]
        elif cls in ("onset", "point"):
            return [ev.step for ev in self.events]
        raise InvalidEvents(f"class {cls!r} undefined for {self.kind} truth")


def event_fault(events: EventSet, num_steps: int | None = None) -> tuple[int, DataError] | None:
    """The first event that breaks the event-set rules, or None if none does.

    Returns the event's index and the error it earns, not raised.  Intervals
    must hold 0 <= onset < offset and start no earlier than the previous one
    ended (touching is allowed); points must hold step >= 0 and not precede
    the previous one.  Every step must be an integer (step_fault: not a
    bool, not fractional).  With num_steps, each event is first checked to
    lie in the series: offset <= num_steps, step < num_steps.  A decimal NaN
    step, which cannot be ordered, is named before any of these checks.
    """
    prev = None
    for i, ev in enumerate(events.events):
        if events.kind == INTERVAL:
            if not isinstance(ev, IntervalEvent):
                return i, InvalidEvents(f"expected IntervalEvent, got {type(ev).__name__}")
            span = f"event [{shown(ev.onset)}, {shown(ev.offset)})"
            fault = _nan_fault(ev.onset) or _nan_fault(ev.offset)
            if fault is not None:
                return i, InvalidEvents(f"{span}: {fault}")
            if num_steps is not None and not (0 <= ev.onset and ev.offset <= num_steps):
                return i, EventOutOfRange(f"{span} outside [0, {shown(num_steps)}]")
            if ev.onset < 0:
                return i, InvalidEvents(f"{span} starts before step 0")
            if ev.onset >= ev.offset:
                return i, InvalidEvents(f"{span} has no positive duration")
            fault = step_fault(ev.onset) or step_fault(ev.offset)
            if fault is not None:
                return i, InvalidEvents(f"{span}: {fault}")
            if prev is not None and ev.onset < prev:
                return i, InvalidEvents(
                    f"event at onset {shown(ev.onset)} overlaps or precedes the previous "
                    f"event ending at {shown(prev)}"
                )
            prev = ev.offset
        else:
            if not isinstance(ev, PointEvent):
                return i, InvalidEvents(f"expected PointEvent, got {type(ev).__name__}")
            fault = _nan_fault(ev.step)
            if fault is not None:
                return i, InvalidEvents(fault)
            if num_steps is not None and not 0 <= ev.step < num_steps:
                return i, EventOutOfRange(f"point {shown(ev.step)} outside [0, {shown(num_steps)})")
            if ev.step < 0:
                return i, InvalidEvents(f"point {shown(ev.step)} is before step 0")
            fault = step_fault(ev.step)
            if fault is not None:
                return i, InvalidEvents(fault)
            if prev is not None and ev.step < prev:
                return i, InvalidEvents(f"point {shown(ev.step)} precedes previous {shown(prev)}")
            prev = ev.step
    return None


def validate_events(events: EventSet, num_steps: int) -> None:
    """Raise the error of event_fault against a series of num_steps >= 1 steps."""
    if num_steps < 1:
        raise EventOutOfRange(f"num_steps={shown(num_steps)} must be positive")
    fault = event_fault(events, num_steps)
    if fault is not None:
        raise fault[1]


def derive_state_labels(events: EventSet, num_steps: int) -> np.ndarray:
    """Binary per-step labels: 1 inside any [onset, offset), else 0."""
    validate_events(events, num_steps)
    if events.kind != INTERVAL:
        raise InvalidEvents("state labels are defined for interval events only")
    labels = np.zeros(num_steps, dtype=np.int64)
    for ev in events.events:
        labels[int(ev.onset) : int(ev.offset)] = 1  # a checked step may be a float
    return labels


def points_from_intervals(events: EventSet) -> EventSet:
    """Collapse interval events to point events at their onsets."""
    if events.kind != INTERVAL:
        raise InvalidEvents("points_from_intervals requires interval events")
    points = tuple(PointEvent(ev.onset, ev.score) for ev in events.events)
    return EventSet(events.series_id, POINT, points)


def step_fault(step) -> str | None:
    """Why step is no event step, or None if it is one.

    The step must be an integer >= 0: a numpy integer or an integral float
    is one, a bool, a fractional value or an inf or NaN (a float, numpy float
    or decimal.Decimal one) is not.
    """
    if type(step) is not int:
        if isinstance(step, (bool, np.bool_)):
            return f"step {shown(step)} is not an integer"
        try:
            fractional = step != int(step)
        except (OverflowError, ValueError):  # int() of an inf, a NaN or a string
            if isinstance(step, (str, bytes, bytearray)):
                raise  # no number at all: callers name that fault themselves
            fractional = True
        if fractional:
            return f"step {shown(step)} is not an integer"
    if step < 0:
        return f"step {shown(step)} is before step 0"
    return None


def _nan_fault(step) -> str | None:
    """step_fault of a decimal NaN, else None.  A decimal NaN's < and > raise
    where a float NaN's give False, so event_fault names it before it orders
    the steps."""
    if type(step) is int:
        return None
    is_nan = getattr(step, "is_nan", None)  # a decimal.Decimal method
    return step_fault(step) if is_nan is not None and is_nan() else None


def detection_fault(step, score) -> str | None:
    """Why (step, score) is no valid detection, or None if it is one.

    The step must pass step_fault and the score must be finite.
    """
    fault = step_fault(step)
    if fault is None and not math.isfinite(score):
        fault = f"score {score} is not finite"
    return fault


def checked_steps(steps, name: str) -> list[int]:
    """steps as ints if each passes step_fault, else InvalidEvents naming the
    first one that does not as name[index]."""
    out: list[int] = []
    try:
        for step in steps:
            fault = step_fault(step)
            if fault is not None:
                raise InvalidEvents(f"{name}[{len(out)}]: {fault}")
            out.append(int(step))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidEvents(f"{name} must hold integer steps: {exc}") from None
    return out


def checked_detections(pairs, name: str) -> list[tuple[int, float]]:
    """pairs as (int, float) detections if each passes detection_fault, else
    InvalidEvents naming the first one that does not as name[index]."""
    out: list[tuple[int, float]] = []
    try:
        for step, score in pairs:
            # an (int, float) pair that passes is kept as it is, as below
            if type(step) is int and type(score) is float and step >= 0 and math.isfinite(score):
                out.append((step, score))
                continue
            fault = detection_fault(step, score)
            if fault is not None:
                raise InvalidEvents(f"{name}[{len(out)}]: {fault}")
            out.append((int(step), float(score)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidEvents(
            f"{name} must hold (step, score) pairs of numbers: {exc}"
        ) from None
    return out


@dataclass(frozen=True)
class ScoredEvents:
    """Decoded detections for one series: (step, score) pairs per boundary class.

    onsets and offsets hold (step, score) pairs sorted by step that pass
    detection_fault, stored as (int, float).  Point detections use the onsets
    slot, offsets stay empty.
    """

    onsets: tuple[tuple[int, float], ...] = ()
    offsets: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        for name in ("onsets", "offsets"):
            pairs = checked_detections(getattr(self, name), name)
            object.__setattr__(self, name, tuple(pairs))
            steps = [s for s, _ in pairs]
            if steps != sorted(steps):
                raise InvalidEvents(f"{name} must be sorted by step")

    @classmethod
    def _trusted(cls, onsets, offsets=()) -> "ScoredEvents":
        """The record of pairs a decoder built, set without the checks above.

        Only the decoders of decode.py call it.  Their pairs already hold
        what __post_init__ checks:

        * each step is a Python int taken from sorted intp indices, each
          below the series length;
        * each score is a Python float taken from an array that passed
          signal.real_array, the one gate of every caller's array, and was
          checked finite (decode._contrasts and signal._check_finite_1d);
        * the pairs of each slot are in ascending step order.

        The record then equals, hashes, pickles and saves as
        ScoredEvents(onsets, offsets) does.
        """
        record = object.__new__(cls)
        object.__setattr__(record, "onsets", tuple(onsets))
        object.__setattr__(record, "offsets", tuple(offsets))
        return record

    def __len__(self) -> int:
        return len(self.onsets) + len(self.offsets)

    def by_class(self, cls: str) -> tuple[tuple[int, float], ...]:
        """Detections for one boundary class name ('onset', 'offset', 'point')."""
        if cls in ("onset", "point"):
            return self.onsets
        if cls == "offset":
            return self.offsets
        raise InvalidEvents(f"unknown event class {cls!r}")
