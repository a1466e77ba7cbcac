"""Synthetic data generation, window downsampling, and CSV persistence.

The generator produces a two-state latent process (alternating gaps and
events) observed through two channels: a mean-shifted noisy copy of the
state and a state-dependent variance proxy.  Downsampling summarizes each
length-D window with mean/std/max/min per channel, matching the feature
expansion applied before modeling.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import DataError, InvalidConfig, InvalidEvents, InvalidFactor, IoError, ParseError
from .types import (
    INTERVAL,
    POINT,
    EventSet,
    IntervalEvent,
    PointEvent,
    ScoredEvents,
    TimeSeries,
    detection_fault,
    event_fault,
    validate_events,
)

# %.17g round-trips IEEE float64 exactly through decimal text
_FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the two-state synthetic generator."""

    num_series: int
    length: int
    mean_event_duration: int
    mean_gap: int
    noise_std: float
    signal_shift: float = 1.0
    drift_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.num_series < 1:
            raise InvalidConfig(f"num_series={self.num_series}, expected >= 1")
        if self.mean_event_duration < 1 or self.mean_gap < 1:
            raise InvalidConfig("mean_event_duration and mean_gap must be >= 1")
        if self.length < self.mean_event_duration + self.mean_gap:
            raise InvalidConfig(
                f"length={self.length} shorter than one mean gap+event cycle"
            )
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0):
            raise InvalidConfig(f"noise_std={self.noise_std}, expected >= 0")
        if not (np.isfinite(self.drift_std) and self.drift_std >= 0):
            raise InvalidConfig(f"drift_std={self.drift_std}, expected >= 0")
        if not np.isfinite(self.signal_shift):
            raise InvalidConfig("signal_shift must be finite")
        if self.seed < 0:
            raise InvalidConfig(f"seed={self.seed}, expected >= 0")


def _draw_duration(rng: np.random.Generator, mean: int) -> int:
    """Geometric-like duration with the given mean, support >= 1.

    Sum of two geometric phases (a negative binomial) plus one: keeps the
    memoryless flavor but roughly halves the variance of a plain geometric,
    so run counts per series concentrate near length / (mean_gap +
    mean_event_duration).
    """
    p = 2.0 / (mean + 1.0)
    return int(rng.negative_binomial(2, p)) + 1


def synth_generate(config: SynthConfig) -> list[tuple[TimeSeries, EventSet]]:
    """Generate num_series independent (series, events) pairs, seeded."""
    rng = np.random.default_rng(config.seed)
    out: list[tuple[TimeSeries, EventSet]] = []
    for idx in range(config.num_series):
        sid = f"s{idx:03d}"
        state = np.zeros(config.length, dtype=np.float64)
        events: list[IntervalEvent] = []
        t = 0
        in_event = False
        while t < config.length:
            mean = config.mean_event_duration if in_event else config.mean_gap
            run = _draw_duration(rng, mean)
            end = min(t + run, config.length)
            if in_event:
                state[t:end] = 1.0
                events.append(IntervalEvent(t, end))
            t = end
            in_event = not in_event

        noise = rng.normal(0.0, 1.0, config.length) * config.noise_std
        drift = np.cumsum(rng.normal(0.0, 1.0, config.length) * config.drift_std)
        chan_a = state * config.signal_shift + noise + drift
        # variance proxy: noise amplitude doubles inside events
        chan_b = rng.normal(0.0, 1.0, config.length) * (
            config.noise_std * (1.0 + state)
        )
        series = TimeSeries.build(sid, {"a": chan_a, "b": chan_b})
        event_set = EventSet(sid, INTERVAL, tuple(events))
        validate_events(event_set, config.length)
        out.append((series, event_set))
    return out


def _downsample_events(events: EventSet, factor: int, new_len: int) -> EventSet:
    """Map event steps t -> floor(t/D), dropping events past the cropped end.

    Interval offsets are clipped to the new length and kept at least one
    step past the mapped onset so no event collapses to zero duration.  An
    interval whose mapped onset lies inside the previous mapped interval
    merges into it (larger offset, earlier score), so a valid set stays valid.
    """
    if events.kind == INTERVAL:
        mapped = []
        for ev in events.events:
            onset = ev.onset // factor
            if onset >= new_len:
                continue
            offset = min(ev.offset // factor, new_len)
            offset = max(offset, onset + 1)
            if mapped and onset < mapped[-1].offset:
                mapped[-1] = replace(mapped[-1], offset=max(mapped[-1].offset, offset))
            else:
                mapped.append(IntervalEvent(onset, offset, ev.score))
        return EventSet(events.series_id, INTERVAL, tuple(mapped))
    mapped = [
        PointEvent(ev.step // factor, ev.score)
        for ev in events.events
        if ev.step // factor < new_len
    ]
    return EventSet(events.series_id, POINT, tuple(mapped))


def downsample(
    series: TimeSeries,
    factor_D: int,
    events: EventSet | None = None,
) -> tuple[TimeSeries, EventSet | None]:
    """Summarize length-D windows: mean/std/max/min per channel.

    Output length is floor(T/D); the trailing partial window is dropped.
    Std is the population standard deviation (zero for D=1).  Event steps
    map t -> floor(t/D).
    """
    if factor_D < 1:
        raise InvalidFactor(f"factor_D={factor_D}, expected >= 1")
    if series.num_steps < factor_D:
        raise InvalidFactor(
            f"factor_D={factor_D} exceeds series length {series.num_steps}"
        )
    new_len = series.num_steps // factor_D
    channels: dict[str, np.ndarray] = {}
    for name, values in series.channels.items():
        arr = np.asarray(values, dtype=np.float64)[: new_len * factor_D]
        windows = arr.reshape(new_len, factor_D)
        channels[f"{name}_mean"] = windows.mean(axis=1)
        channels[f"{name}_std"] = windows.std(axis=1)
        channels[f"{name}_max"] = windows.max(axis=1)
        channels[f"{name}_min"] = windows.min(axis=1)
    new_series = TimeSeries.build(series.series_id, channels)
    new_events = (
        _downsample_events(events, factor_D, new_len) if events is not None else None
    )
    return new_series, new_events


# -- CSV persistence --------------------------------------------------------


def write_table(path: str | Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write a CSV file: the header line, then one line per row.

    None is written as an empty field, a float with %.17g and anything else
    with str; fields holding a comma, a quote or a line break are quoted.
    Lines end in LF.
    """
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8", newline="") as f:
            # csv quotes the characters of its line terminator besides ',' and
            # '"': rows end in CRLF so '\r' is quoted too, then lose the CR
            lf = SimpleNamespace(write=lambda line: f.write(line[:-2] + "\n"))
            writer = csv.writer(lf, lineterminator="\r\n")
            writer.writerow(header)
            # csv itself writes None as an empty field and str() of the rest
            writer.writerows(
                [_FLOAT_FMT % v if isinstance(v, float) else v for v in row] for row in rows
            )
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _read_table(
    path: Path, check_header: Callable[[list[str]], None]
) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header and the (line, fields) of each data row of a CSV file.

    check_header raises ParseError for a header the caller cannot read; it
    runs before any data row is parsed.  Each data row must have as many
    fields as the header.
    """
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8 text: {exc.reason}", line=line) from None
    # newline="" hands csv the line ends as written: universal newlines would
    # turn a quoted '\r' into '\n'
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = []
    try:
        header = next(reader, [])
        check_header(header)
        for row in reader:
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, found {len(row)}",
                    line=reader.line_num,
                )
            rows.append((reader.line_num, row))
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    return header, rows


def save_series(path: str | Path, series: TimeSeries) -> None:
    """Write `step,<channel>...` rows with full-precision decimal values."""
    names = series.channel_names
    columns = [np.asarray(series.channels[n], dtype=np.float64).tolist() for n in names]
    write_table(path, ["step", *names], zip(range(series.num_steps), *columns))


def _check_series_header(header: list[str]) -> None:
    if len(header) < 2 or header[0] != "step":
        raise ParseError("expected header 'step,<channel>...'", line=1, column=1)
    if len(set(header[1:])) != len(header) - 1:
        raise ParseError("duplicate channel names", line=1, column=2)


def load_series(path: str | Path) -> TimeSeries:
    """Read a series CSV whose steps are 0 .. n-1 in order; the id is the file stem."""
    path = Path(path)
    header, rows = _read_table(path, _check_series_header)
    names = header[1:]
    columns: list[list[float]] = [[] for _ in names]
    for step, (i, row) in enumerate(rows):
        if row[0] != str(step):
            raise ParseError(f"expected step {step}, found {row[0]!r}", line=i, column=1)
        for j, cell in enumerate(row[1:], start=2):
            try:
                columns[j - 2].append(float(cell))
            except ValueError:
                raise ParseError(f"bad number {cell!r}", line=i, column=j) from None
    channels = {
        name: np.asarray(col, dtype=np.float64) for name, col in zip(names, columns)
    }
    return TimeSeries.build(path.stem, channels)


_EVENT_HEADER = ["series_id", "event", "step", "score"]


def _event_rows(sid: str, obj: EventSet | ScoredEvents) -> Iterable[list]:
    if not len(obj):
        yield [sid, None, None, None]
    elif isinstance(obj, EventSet):
        if obj.kind == INTERVAL:
            for ev in obj.events:
                yield [sid, "onset", ev.onset, ev.score]
                yield [sid, "offset", ev.offset, ev.score]
        else:
            for ev in obj.events:
                yield [sid, "point", ev.step, ev.score]
    else:
        for step, score in obj.onsets:
            yield [sid, "onset", step, score]
        for step, score in obj.offsets:
            yield [sid, "offset", step, score]


def save_events(
    path: str | Path, events: Mapping[str, EventSet | ScoredEvents]
) -> None:
    """Write a long-form events CSV covering one or more series.

    Interval ground truth emits alternating onset/offset rows per event;
    decoded ScoredEvents emit their onset rows then offset rows.  The score
    column is left empty for unscored ground truth.  A series without events
    keeps one row whose event, step and score fields are empty.
    """
    rows = (row for sid in sorted(events) for row in _event_rows(sid, events[sid]))
    write_table(path, _EVENT_HEADER, rows)


def _check_event_header(header: list[str]) -> None:
    if header != _EVENT_HEADER:
        raise ParseError("expected header 'series_id,event,step,score'", line=1, column=1)


def _event_row(line: int, kind: str, step_text: str, score_text: str) -> tuple:
    """(event, step, score, line) of one data row, or the ParseError of its first bad cell."""
    if kind not in ("onset", "offset", "point"):
        raise ParseError(f"bad event type {kind!r}", line=line, column=2)
    try:
        step = int(step_text)
    except ValueError:
        raise ParseError(f"bad step {step_text!r}", line=line, column=3) from None
    try:
        score = float(score_text) if score_text != "" else None
    except ValueError:
        raise ParseError(f"bad score {score_text!r}", line=line, column=4) from None
    return kind, step, score, line


def load_events(path: str | Path) -> dict[str, EventSet]:
    """Read ground-truth events back into typed EventSets per series.

    A series whose first row is a 'point' row is a point EventSet; otherwise
    its rows pair into intervals by position (onset, then offset, as
    save_events writes them).  A series without events reads as an empty
    interval set.  Each series is read in file order up to its stop row: the
    first row with a bad cell (a ParseError at that cell) or whose event is
    out of turn, a point in an interval series or the reverse, or an onset
    or offset out of pairing order (a ParseError at column 2).  event_fault
    then checks the events completed before the stop row; the first that
    breaks a rule is an InvalidEvents naming the file, the series and its
    line (an interval's onset line).  A series' fault is that event's, else
    its stop row's, else an unpaired trailing onset.  Of the series' faults,
    the one on the earliest line is raised, so interleaved series report in
    file order.
    """
    _, table = _read_table(Path(path), _check_event_header)
    # (event, step, score, line) of each series' rows before its stop row
    kept: dict[str, list[tuple[str, int, float | None, int]]] = {}
    stops: dict[str, ParseError] = {}
    for line, (sid, kind, step_text, score_text) in table:
        rows = kept.setdefault(sid, [])
        if sid in stops or kind == step_text == score_text == "":
            continue
        try:
            row = _event_row(line, kind, step_text, score_text)
            # the first row sets the series' kind, and the kept rows are in turn
            first = rows[0][0] if rows else kind
            expected = "point" if first == "point" else ("onset", "offset")[len(rows) % 2]
            if kind != expected:
                raise ParseError(
                    f"series {sid!r} mixes point and interval rows"
                    if "point" in (kind, expected)
                    else f"series {sid!r}: {kind} without preceding {expected}",
                    line=line, column=2,
                )
        except ParseError as exc:
            stops[sid] = exc
            continue
        rows.append(row)
    out: dict[str, EventSet] = {}
    faults: list[tuple[int, DataError]] = []
    for sid, rows in kept.items():
        if rows and rows[0][0] == "point":
            starts = rows
            events = EventSet(sid, POINT, [PointEvent(step, score) for _, step, score, _ in rows])
        else:
            starts = rows[::2]
            events = EventSet(sid, INTERVAL, [
                IntervalEvent(onset, offset, score)
                for (_, onset, score, _), (_, offset, _, _) in zip(rows[::2], rows[1::2])
            ])
        fault = event_fault(events)
        if fault is not None:
            index, error = fault
            line = starts[index][3]
            faults.append((line, type(error)(f"{path}: series {sid!r}, line {line}: {error}")))
        elif sid in stops:
            faults.append((stops[sid].line, stops[sid]))
        elif len(starts) > len(events):  # an onset that no offset followed
            line = starts[-1][3]
            error = ParseError(f"series {sid!r}: unpaired trailing onset", line=line, column=2)
            faults.append((line, error))
        out[sid] = events
    if faults:
        raise min(faults, key=lambda fault: fault[0])[1]
    return out


def load_scored_events(path: str | Path) -> dict[str, ScoredEvents]:
    """Read decoded detections: onset/point rows and offset rows with scores.

    The rows are checked in file order and the first faulty one raises: a
    bad cell or a missing score is a ParseError, and a row that fails
    detection_fault is an InvalidEvents naming the file, the series and the
    line.
    """
    _, table = _read_table(Path(path), _check_event_header)
    # per series: its onset/point pairs and its offset pairs
    detections: dict[str, tuple[list, list]] = {}
    for line, (sid, kind, step_text, score_text) in table:
        # not setdefault, which would build two lists for every row
        pairs = detections.get(sid)
        if pairs is None:
            pairs = detections[sid] = ([], [])
        if kind == step_text == score_text == "":
            continue
        kind, step, score, _ = _event_row(line, kind, step_text, score_text)
        if score is None:
            raise ParseError(f"series {sid!r}: detection rows need a score", line=line, column=4)
        pair = (step, score)
        fault = detection_fault((pair,))
        if fault is not None:
            raise InvalidEvents(f"{path}: series {sid!r}, line {line}: {fault[1]}")
        pairs[kind == "offset"].append(pair)
    return {
        sid: ScoredEvents(onsets=sorted(onsets), offsets=sorted(offsets))
        for sid, (onsets, offsets) in detections.items()
    }
