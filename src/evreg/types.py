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
        converted = {
            name: np.asarray(values, dtype=np.float64)
            for name, values in channels.items()
        }
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
            f"(num_steps={series.num_steps}, channels={len(series.channels)})"
        )
    for name, values in series.channels.items():
        arr = np.asarray(values)
        if arr.ndim != 1 or len(arr) != series.num_steps:
            raise LengthMismatch(
                f"channel {name!r} of series {series.series_id!r} has length "
                f"{arr.shape}, expected ({series.num_steps},)"
            )
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise NonFiniteValue(
                f"channel {name!r} of series {series.series_id!r} is non-finite "
                f"at step {bad}"
            )


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
    lie in the series: offset <= num_steps, step < num_steps.
    """
    prev = None
    for i, ev in enumerate(events.events):
        if events.kind == INTERVAL:
            if not isinstance(ev, IntervalEvent):
                return i, InvalidEvents(f"expected IntervalEvent, got {type(ev).__name__}")
            span = f"event [{ev.onset}, {ev.offset})"
            if num_steps is not None and not (0 <= ev.onset and ev.offset <= num_steps):
                return i, EventOutOfRange(f"{span} outside [0, {num_steps}]")
            if ev.onset < 0:
                return i, InvalidEvents(f"{span} starts before step 0")
            if ev.onset >= ev.offset:
                return i, InvalidEvents(f"{span} has no positive duration")
            fault = step_fault(ev.onset) or step_fault(ev.offset)
            if fault is not None:
                return i, InvalidEvents(f"{span}: {fault}")
            if prev is not None and ev.onset < prev:
                return i, InvalidEvents(
                    f"event at onset {ev.onset} overlaps or precedes the previous "
                    f"event ending at {prev}"
                )
            prev = ev.offset
        else:
            if not isinstance(ev, PointEvent):
                return i, InvalidEvents(f"expected PointEvent, got {type(ev).__name__}")
            if num_steps is not None and not 0 <= ev.step < num_steps:
                return i, EventOutOfRange(f"point {ev.step} outside [0, {num_steps})")
            if ev.step < 0:
                return i, InvalidEvents(f"point {ev.step} is before step 0")
            fault = step_fault(ev.step)
            if fault is not None:
                return i, InvalidEvents(fault)
            if prev is not None and ev.step < prev:
                return i, InvalidEvents(f"point {ev.step} precedes previous {prev}")
            prev = ev.step
    return None


def validate_events(events: EventSet, num_steps: int) -> None:
    """Raise the error of event_fault against a series of num_steps >= 1 steps."""
    if num_steps < 1:
        raise EventOutOfRange(f"num_steps={num_steps} must be positive")
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
        labels[ev.onset : ev.offset] = 1
    return labels


def points_from_intervals(events: EventSet, which: str = "onset") -> EventSet:
    """Collapse interval events to point events at their onset or offset."""
    if events.kind != INTERVAL:
        raise InvalidEvents("points_from_intervals requires interval events")
    if which not in ("onset", "offset"):
        raise InvalidEvents(f"which={which!r}, expected 'onset' or 'offset'")
    points = tuple(
        PointEvent(ev.onset if which == "onset" else ev.offset, ev.score)
        for ev in events.events
    )
    return EventSet(events.series_id, POINT, points)


def step_fault(step) -> str | None:
    """Why step is no event step, or None if it is one.

    The step must be an integer >= 0: a numpy integer or an integral float
    is one, a bool or a fractional value is not.
    """
    if type(step) is not int and (isinstance(step, (bool, np.bool_)) or step != int(step)):
        return f"step {step} is not an integer"
    if step < 0:
        return f"step {step} is before step 0"
    return None


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

    def __len__(self) -> int:
        return len(self.onsets) + len(self.offsets)

    def by_class(self, cls: str) -> tuple[tuple[int, float], ...]:
        """Detections for one boundary class name ('onset', 'offset', 'point')."""
        if cls in ("onset", "point"):
            return self.onsets
        if cls == "offset":
            return self.offsets
        raise InvalidEvents(f"unknown event class {cls!r}")
