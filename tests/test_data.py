import math
import re
from decimal import Decimal

import numpy as np
import pytest
from conftest import csv_table_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from evreg.data import (
    SynthConfig,
    downsample,
    load_events,
    load_scored_events,
    load_series,
    save_events,
    save_series,
    synth_generate,
    write_table,
)
from evreg.errors import DataError, InvalidConfig, InvalidEvents, InvalidFactor, ParseError
from evreg.types import (
    INTERVAL,
    POINT,
    EventSet,
    IntervalEvent,
    PointEvent,
    ScoredEvents,
    TimeSeries,
    derive_state_labels,
    validate_events,
    validate_series,
)


class TestSynthGenerate:
    def test_deterministic(self):
        cfg = SynthConfig(3, 2000, 100, 150, 0.4, seed=9)
        a = synth_generate(cfg)
        b = synth_generate(cfg)
        for (sa, ea), (sb, eb) in zip(a, b):
            assert sa.series_id == sb.series_id
            for name in sa.channels:
                np.testing.assert_array_equal(sa.channels[name], sb.channels[name])
            assert ea.events == eb.events

    def test_different_seeds_differ(self):
        a = synth_generate(SynthConfig(1, 2000, 100, 150, 0.4, seed=1))
        b = synth_generate(SynthConfig(1, 2000, 100, 150, 0.4, seed=2))
        assert not np.array_equal(
            a[0][0].channels["a"], b[0][0].channels["a"]
        )

    def test_noiseless_channel_is_scaled_state(self):
        cfg = SynthConfig(2, 1500, 80, 120, 0.0, signal_shift=2.5, drift_std=0.0, seed=4)
        for series, events in synth_generate(cfg):
            labels = derive_state_labels(events, series.num_steps)
            np.testing.assert_array_equal(
                series.channels["a"], labels.astype(float) * 2.5
            )
            np.testing.assert_array_equal(series.channels["b"], np.zeros(1500))

    def test_outputs_always_valid(self):
        for seed in range(10):
            cfg = SynthConfig(2, 1000, 50, 70, 1.0, drift_std=0.01, seed=seed)
            for series, events in synth_generate(cfg):
                validate_series(series)
                validate_events(events, series.num_steps)
                assert events.kind == INTERVAL

    def test_event_count_concentration(self):
        # Monte-Carlo bound: 10k steps at mean duration/gap 500 gives 5..15
        # events in at least 99% of seeds
        hits = 0
        seeds = 1000
        for seed in range(seeds):
            cfg = SynthConfig(1, 10_000, 500, 500, 0.5, seed=seed)
            _, events = synth_generate(cfg)[0]
            hits += 5 <= len(events) <= 15
        assert hits / seeds >= 0.99

    def test_invalid_configs(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(0, 1000, 50, 50, 0.5)
        with pytest.raises(InvalidConfig):
            SynthConfig(1, 1000, 0, 50, 0.5)
        with pytest.raises(InvalidConfig):
            SynthConfig(1, 80, 50, 50, 0.5)
        with pytest.raises(InvalidConfig):
            SynthConfig(1, 1000, 50, 50, -0.5)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("num_series", True, "num_series: True is not an int"),
            ("length", 256.5, "length: 256.5 is not an int"),
            ("mean_gap", np.float64(20.0), "mean_gap: .* is not an int"),
            ("seed", "1", "seed: '1' is not an int"),
            ("noise_std", "0.5", "noise_std: '0.5' is not a real number"),
            ("noise_std", True, "noise_std: True is not a real number"),
            pytest.param("noise_std", 10**400, "noise_std=1000+, expected >= 0", id="huge-noise"),
            pytest.param("drift_std", 10**400, "drift_std=1000+, expected >= 0", id="huge-drift"),
            pytest.param("signal_shift", -(10**400), "signal_shift must be finite", id="huge-shift"),
        ],
    )
    def test_field_types(self, field, value, match):
        fields = dict(num_series=2, length=256, mean_event_duration=10, mean_gap=20, noise_std=0.5)
        with pytest.raises(InvalidConfig, match=match):
            SynthConfig(**{**fields, field: value})

    def test_numpy_fields_accepted(self):
        cfg = SynthConfig(np.int64(2), np.int32(256), 10, 20, np.float32(0.5), seed=np.uint8(3))
        assert len(synth_generate(cfg)) == 2


class TestDownsample:
    def test_identity_factor(self):
        series = TimeSeries.build("s", {"a": [1.0, 2.0, 3.0]})
        out, _ = downsample(series, 1)
        np.testing.assert_array_equal(out.channels["a_mean"], [1, 2, 3])
        np.testing.assert_array_equal(out.channels["a_std"], [0, 0, 0])
        np.testing.assert_array_equal(out.channels["a_max"], [1, 2, 3])
        np.testing.assert_array_equal(out.channels["a_min"], [1, 2, 3])

    def test_window_stats(self):
        series = TimeSeries.build("s", {"a": [1.0, 3.0, 5.0, 7.0]})
        out, _ = downsample(series, 2)
        np.testing.assert_array_equal(out.channels["a_mean"], [2, 6])
        np.testing.assert_array_equal(out.channels["a_std"], [1, 1])
        np.testing.assert_array_equal(out.channels["a_max"], [3, 7])
        np.testing.assert_array_equal(out.channels["a_min"], [1, 5])

    def test_trailing_partial_window_dropped(self):
        series = TimeSeries.build("s", {"a": np.arange(10.0)})
        out, _ = downsample(series, 3)
        assert out.num_steps == 3

    def test_event_mapping(self):
        series = TimeSeries.build("s", {"a": np.arange(100.0)})
        events = EventSet("s", INTERVAL, (IntervalEvent(25, 57),))
        _, mapped = downsample(series, 10, events)
        assert mapped.events == (IntervalEvent(2, 5),)

    def test_point_event_mapping(self):
        series = TimeSeries.build("s", {"a": np.arange(100.0)})
        events = EventSet("s", POINT, (PointEvent(25), PointEvent(99)))
        _, mapped = downsample(series, 10, events)
        assert mapped.events == (PointEvent(2), PointEvent(9))

    def test_event_past_cropped_end_dropped(self):
        series = TimeSeries.build("s", {"a": np.arange(11.0)})
        events = EventSet("s", POINT, (PointEvent(10),))
        _, mapped = downsample(series, 2, events)  # new length 5, 10//2=5 out
        assert mapped.events == ()

    def test_short_event_keeps_one_step(self):
        series = TimeSeries.build("s", {"a": np.arange(100.0)})
        events = EventSet("s", INTERVAL, (IntervalEvent(42, 45),))
        _, mapped = downsample(series, 10, events)
        assert mapped.events == (IntervalEvent(4, 5),)

    def test_labels_majority_agreement_for_long_events(self):
        # windowed label majority and mapped events agree except at borders
        rng = np.random.default_rng(2)
        for _ in range(10):
            length, factor = 400, 5
            onset = int(rng.integers(0, 200))
            duration = int(rng.integers(2 * factor, 150))
            events = EventSet("s", INTERVAL, (IntervalEvent(onset, onset + duration),))
            series = TimeSeries.build("s", {"a": np.zeros(length)})
            down_series, down_events = downsample(series, factor, events)
            fine = derive_state_labels(events, length)[: down_series.num_steps * factor]
            majority = (
                fine.reshape(down_series.num_steps, factor).mean(axis=1) > 0.5
            ).astype(int)
            mapped = derive_state_labels(down_events, down_series.num_steps)
            assert int(np.abs(majority - mapped).sum()) <= 2

    def test_invalid_factor(self):
        series = TimeSeries.build("s", {"a": np.arange(4.0)})
        with pytest.raises(InvalidFactor):
            downsample(series, 0)
        with pytest.raises(InvalidFactor):
            downsample(series, 5)

    @pytest.mark.parametrize("factor, message", [
        ("2", "factor_D: '2' is not an int"),
        (2.5, "factor_D: 2.5 is not an int"),
        (None, "factor_D: None is not an int"),
        (True, "factor_D: True is not an int"),
        (np.array([1, 2]), "factor_D: array([1, 2]) is not an int"),
        (0, "factor_D=0, expected >= 1"),
    ])
    def test_factor_follows_the_int_rule(self, factor, message):
        series = TimeSeries.build("s", {"a": np.arange(4.0)})
        with pytest.raises(InvalidFactor) as err:
            downsample(series, factor)
        assert str(err.value) == message

    def test_numpy_int_factor(self):
        series = TimeSeries.build("s", {"a": np.arange(4.0)})
        assert downsample(series, np.int64(2))[0].num_steps == 2

    def test_onsets_in_one_window_merge(self):
        # [9, 11) maps to [1, 2) and [12, 30) to [1, 3): the second would
        # overlap the first, so it extends it instead
        series = TimeSeries.build("s", {"a": np.arange(64.0)})
        events = EventSet("s", INTERVAL, (IntervalEvent(9, 11, 0.5), IntervalEvent(12, 30)))
        _, mapped = downsample(series, 8, events)
        assert mapped.events == (IntervalEvent(1, 3, 0.5),)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), length=st.integers(1, 80), kind=st.sampled_from([INTERVAL, POINT]))
    def test_valid_truth_stays_valid(self, data, length, kind):
        factor = data.draw(st.integers(1, length))
        if kind == POINT:
            steps = data.draw(st.lists(st.integers(0, length - 1), max_size=8))
            events = EventSet("s", POINT, [PointEvent(t) for t in sorted(steps)])
        else:
            bounds = sorted(data.draw(st.lists(st.integers(0, length), unique=True, max_size=9)))
            if data.draw(st.booleans()):  # touching: [b0, b1), [b1, b2), ...
                pairs = zip(bounds, bounds[1:])
            else:
                pairs = zip(bounds[::2], bounds[1::2])
            events = EventSet("s", INTERVAL, [IntervalEvent(a, b) for a, b in pairs])
        validate_events(events, length)
        series = TimeSeries.build("s", {"a": np.zeros(length)})
        down_series, down_events = downsample(series, factor, events)
        validate_events(down_events, down_series.num_steps)


class TestSeriesCsv:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        series = TimeSeries.build(
            "orig",
            {
                "a": rng.normal(size=64) * 1e6,
                "b": rng.normal(size=64) * 1e-9,
                "c": rng.normal(size=64),
            },
        )
        path = tmp_path / "orig.csv"
        save_series(path, series)
        loaded = load_series(path)
        assert loaded.series_id == "orig"
        assert loaded.channel_names == ("a", "b", "c")
        for name in series.channels:
            np.testing.assert_array_equal(loaded.channels[name], series.channels[name])

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,a\n0,1.5\n")
        with pytest.raises(ParseError) as err:
            load_series(path)
        assert err.value.line == 1

    def test_bad_number_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,a,b\n0,1.5,2.5\n1,oops,2.5\n")
        with pytest.raises(ParseError) as err:
            load_series(path)
        assert err.value.line == 3
        assert err.value.column == 2

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,a,b\n0,1.5\n")
        with pytest.raises(ParseError) as err:
            load_series(path)
        assert err.value.line == 2

    def test_quoted_channel_names_roundtrip(self, tmp_path):
        series = TimeSeries.build("s", {"x,y": [1.5, -2.0], 'q"': [0.25, 3.0]})
        path = tmp_path / "s.csv"
        save_series(path, series)
        assert path.read_text().splitlines()[0] == 'step,"x,y","q"""'
        loaded = load_series(path)
        assert loaded.channel_names == ("x,y", 'q"')
        for name in series.channels:
            np.testing.assert_array_equal(loaded.channels[name], series.channels[name])

    def test_oversized_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,a\n0," + "1" * 200_000 + "\n")
        with pytest.raises(ParseError) as err:
            load_series(path)
        assert err.value.line == 2

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"step,a\n0,1.5\n1,\xff\n")
        with pytest.raises(ParseError) as err:
            load_series(path)
        assert err.value.line == 3

    def test_carriage_return_channel_name_roundtrip(self, tmp_path):
        series = TimeSeries.build("s", {"a\rb": [1.5, -2.0], "c\r\nd": [0.25, 3.0]})
        path = tmp_path / "s.csv"
        save_series(path, series)
        assert path.read_bytes().startswith(b'step,"a\rb","c\r\nd"\n0,')
        loaded = load_series(path)
        assert loaded.channel_names == ("a\rb", "c\r\nd")
        for name in series.channels:
            np.testing.assert_array_equal(loaded.channels[name], series.channels[name])

    def test_crlf_file_loads(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"step,a,b\r\n0,1.5,2\r\n1,-3,0.25\r\n")
        loaded = load_series(path)
        assert loaded.channel_names == ("a", "b")
        np.testing.assert_array_equal(loaded.channels["a"], [1.5, -3.0])
        np.testing.assert_array_equal(loaded.channels["b"], [2.0, 0.25])

    @pytest.mark.parametrize(
        "text, line",
        [
            ("step,a\nx,1.0\n7,2.0\n", 2),
            ("step,a\n0,1.0\n2,2.0\n", 3),
            ("step,a\n1,1.0\n", 2),
            ("step,a\n0,1.0\n0,2.0\n", 3),
        ],
    )
    def test_steps_must_count_from_zero(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            load_series(path)
        assert (err.value.line, err.value.column) == (line, 1)

    def test_lf_line_endings(self, tmp_path):
        series = TimeSeries.build("s", {"a": [1.0, 2.0]})
        path = tmp_path / "s.csv"
        save_series(path, series)
        raw = path.read_bytes()
        assert b"\r" not in raw


_SIDS = st.text('abxy019," \r', min_size=1, max_size=4)
_SCORES = st.floats(allow_nan=False, allow_infinity=False)
_PAIRS = st.lists(st.tuples(st.integers(0, 50), _SCORES), max_size=4).map(sorted)


@st.composite
def _interval_sets(draw) -> dict[str, EventSet]:
    """Series id -> interval EventSet, empty sets included."""
    out = {}
    for sid in draw(st.lists(_SIDS, unique=True, max_size=4)):
        events, t = [], 0
        parts = st.tuples(st.integers(0, 5), st.integers(1, 5), st.none() | _SCORES)
        for gap, duration, score in draw(st.lists(parts, max_size=4)):
            t += gap
            events.append(IntervalEvent(t, t + duration, score))
            t += duration
        out[sid] = EventSet(sid, INTERVAL, tuple(events))
    return out


# UTF-8 text (no lone surrogates), the characters csv quotes drawn often
_CSV_TEXT = st.text(
    st.characters(exclude_categories=("Cs",)) | st.sampled_from(',"\r\n'), max_size=6
)
_ODD_FLOATS = st.sampled_from(
    [-0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308, 1e308]
)
_FLOAT_FIELDS = st.one_of(
    st.floats(), _ODD_FLOATS, st.floats().map(np.float64), st.floats(width=32).map(np.float32),
)
_CSV_FIELDS = st.one_of(
    st.none(), _FLOAT_FIELDS, st.integers(), st.integers(-(10**400), 10**400),
    st.integers(-(2**63), 2**63 - 1).map(np.int64), st.booleans(), st.just(np.True_), _CSV_TEXT,
    st.sampled_from(["", ",", '"', "\r", "\n", "\r\n", "é", 'a,"b"', "日本"]),
)


def _event_table_rows(events) -> list[list]:
    """The rows save_events documents: per series in id order, interval onset
    and offset rows in turn, point rows, or detection onset rows then offset
    rows; one row of empty fields for a series without events."""
    rows = []
    for sid in sorted(events):
        obj = events[sid]
        if not len(obj):
            rows.append([sid, None, None, None])
        elif isinstance(obj, ScoredEvents):
            rows += [[sid, "onset", step, score] for step, score in obj.onsets]
            rows += [[sid, "offset", step, score] for step, score in obj.offsets]
        elif obj.kind == INTERVAL:
            for ev in obj.events:
                rows += [[sid, "onset", ev.onset, ev.score], [sid, "offset", ev.offset, ev.score]]
        else:
            rows += [[sid, "point", ev.step, ev.score] for ev in obj.events]
    return rows


_STEPS = st.integers(0, 10**30) | st.integers(0, 2**62).map(np.int64)
_EVENT_SCORES = st.none() | _FLOAT_FIELDS
_EVENT_RECORDS = st.one_of(
    st.builds(ScoredEvents, onsets=_PAIRS, offsets=_PAIRS),
    st.builds(
        lambda sid, events: EventSet(sid, INTERVAL, events), _CSV_TEXT,
        st.lists(st.builds(IntervalEvent, _STEPS, _STEPS, _EVENT_SCORES), max_size=3),
    ),
    st.builds(
        lambda sid, events: EventSet(sid, POINT, events), _CSV_TEXT,
        st.lists(st.builds(PointEvent, _STEPS, _EVENT_SCORES), max_size=3),
    ),
)


class TestCsvBytes:
    """write_table and save_events write the bytes csv.writer wrote."""

    @settings(max_examples=300, deadline=None)
    @given(
        header=st.lists(_CSV_TEXT, min_size=1, max_size=4),
        rows=st.lists(st.lists(_CSV_FIELDS, max_size=4), max_size=6),
    )
    def test_write_table_matches_csv_writer(self, tmp_path_factory, header, rows):
        path = tmp_path_factory.mktemp("table") / "table.csv"
        write_table(path, header, rows)
        assert path.read_bytes() == csv_table_oracle(header, rows).encode("utf-8")

    @pytest.mark.parametrize("row", [[""], [None], [], ["", ""], [None, None], [","], ["\r"]])
    def test_single_and_empty_fields(self, tmp_path, row):
        path = tmp_path / "table.csv"
        write_table(path, [""], [row])
        assert path.read_bytes() == csv_table_oracle([""], [row]).encode("utf-8")

    @settings(max_examples=200, deadline=None)
    @given(events=st.dictionaries(_CSV_TEXT, _EVENT_RECORDS, max_size=4))
    def test_save_events_matches_csv_writer(self, tmp_path_factory, events):
        path = tmp_path_factory.mktemp("events") / "events.csv"
        save_events(path, events)
        want = csv_table_oracle(
            ["series_id", "event", "step", "score"], _event_table_rows(events)
        )
        assert path.read_bytes() == want.encode("utf-8")


class TestEventsCsv:
    @settings(max_examples=60, deadline=None)
    @given(events=_interval_sets())
    def test_interval_sets_roundtrip(self, tmp_path_factory, events):
        path = tmp_path_factory.mktemp("events") / "events.csv"
        save_events(path, events)
        assert load_events(path) == events

    @settings(max_examples=60, deadline=None)
    @given(detections=st.dictionaries(
        _SIDS, st.builds(ScoredEvents, onsets=_PAIRS, offsets=_PAIRS), max_size=4
    ))
    def test_scored_events_roundtrip(self, tmp_path_factory, detections):
        path = tmp_path_factory.mktemp("detections") / "det.csv"
        save_events(path, detections)
        assert load_scored_events(path) == detections

    def test_empty_set_is_one_row_of_empty_fields(self, tmp_path):
        path = tmp_path / "events.csv"
        save_events(path, {
            "a": EventSet("a", INTERVAL, ()),
            "b": EventSet("b", INTERVAL, (IntervalEvent(1, 3),)),
        })
        assert path.read_text() == "series_id,event,step,score\na,,,\nb,onset,1,\nb,offset,3,\n"
        path.write_text("series_id,event,step,score\na,,3,\n")
        with pytest.raises(ParseError):
            load_events(path)

    def test_id_with_comma_is_quoted(self, tmp_path):
        path = tmp_path / "events.csv"
        events = {"a,b": EventSet("a,b", INTERVAL, (IntervalEvent(1, 3),))}
        save_events(path, events)
        assert path.read_text().splitlines()[1] == '"a,b",onset,1,'
        assert load_events(path) == events

    def test_truth_roundtrip_with_scores(self, tmp_path):
        events = {
            "s1": EventSet(
                "s1", INTERVAL, (IntervalEvent(3, 9, 0.75), IntervalEvent(12, 20))
            ),
            "s0": EventSet("s0", POINT, (PointEvent(4, 0.5), PointEvent(7))),
        }
        path = tmp_path / "events.csv"
        save_events(path, events)
        loaded = load_events(path)
        assert set(loaded) == {"s0", "s1"}
        assert loaded["s1"].events == events["s1"].events
        assert loaded["s0"].events == events["s0"].events

    def test_scored_roundtrip(self, tmp_path):
        detections = {
            "x": ScoredEvents(onsets=((5, 0.25), (11, 0.5)), offsets=((8, 0.125),))
        }
        path = tmp_path / "det.csv"
        save_events(path, detections)
        loaded = load_scored_events(path)
        assert loaded["x"] == detections["x"]

    @pytest.mark.parametrize(
        "step", [float, np.float32, np.int16, lambda v: Decimal(f"{v}.000")],
        ids=["float", "float32", "int16", "Decimal"],
    )
    def test_integral_truth_steps_roundtrip_as_ints(self, tmp_path, step):
        events = {
            "s": EventSet("s", INTERVAL, (IntervalEvent(step(2), step(5)),)),
            "t": EventSet("t", POINT, (PointEvent(step(3), 0.5),)),
        }
        path = tmp_path / "events.csv"
        save_events(path, events)
        assert path.read_text() == (
            "series_id,event,step,score\ns,onset,2,\ns,offset,5,\nt,point,3,0.5\n"
        )
        loaded = load_events(path)
        assert loaded == events
        assert [type(ev.onset) for ev in loaded["s"].events] == [int]

    def test_touching_events_roundtrip(self, tmp_path):
        events = {
            "s": EventSet("s", INTERVAL, (IntervalEvent(0, 4), IntervalEvent(4, 8)))
        }
        path = tmp_path / "events.csv"
        save_events(path, events)
        assert load_events(path)["s"].events == events["s"].events

    def test_bad_header(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("series,event,step,score\n")
        with pytest.raises(ParseError) as err:
            load_events(path)
        assert err.value.line == 1

    def test_bad_event_kind(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("series_id,event,step,score\ns,middle,5,\n")
        with pytest.raises(ParseError) as err:
            load_events(path)
        assert err.value.line == 2 and err.value.column == 2

    def test_unpaired_onset(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("series_id,event,step,score\ns,onset,5,\n")
        with pytest.raises(ParseError):
            load_events(path)

    @pytest.mark.parametrize("loader,rows,message,line,column", [
        (load_events, "s,onset,1,\ns,offset,3,\ns,point,5,\n",
         "series 's' mixes point and interval rows", 4, 2),
        (load_events, "s,offset,5,\n", "series 's': offset without preceding onset", 2, 2),
        (load_events, "s,onset,1,\ns,onset,3,\ns,offset,5,\n",
         "series 's': onset without preceding offset", 3, 2),
        (load_events, "s,onset,1,\ns,offset,3,\ns,onset,5,\n",
         "series 's': unpaired trailing onset", 4, 2),
        (load_events, "a,onset,1,\nb,onset,2,\na,offset,3,\nb,onset,4,\nb,offset,6,\n",
         "series 'b': onset without preceding offset", 5, 2),
        (load_events, "a,onset,1,\nb,onset,2,\na,offset,3,\n",
         "series 'b': unpaired trailing onset", 3, 2),
        # the series turns from points to intervals at line 4
        (load_events, "s,point,1,\ns,point,3,\ns,onset,5,\ns,offset,6,\n",
         "series 's' mixes point and interval rows", 4, 2),
        # s's rows are read up to its onset on line 4, after t's fault on line 3
        (load_events, "s,point,1,\nt,offset,3,\ns,onset,5,\n",
         "series 't': offset without preceding onset", 3, 2),
        (load_scored_events, "s,onset,1,0.5\ns,offset,3,\n",
         "series 's': detection rows need a score", 3, 4),
        # series 'a' comes first, but the first unscored row of the file is b's
        (load_scored_events, "a,onset,1,0.5\nb,onset,2,\na,offset,3,\n",
         "series 'b': detection rows need a score", 3, 4),
    ], ids=[
        "mixed-kinds", "leading-offset", "double-onset", "trailing-onset",
        "interleaved-double-onset", "interleaved-trailing-onset",
        "points-then-interval", "interleaved-points-then-interval",
        "missing-score", "interleaved-missing-score",
    ])
    def test_malformed_rows_position(self, tmp_path, loader, rows, message, line, column):
        path = tmp_path / "events.csv"
        path.write_text("series_id,event,step,score\n" + rows)
        with pytest.raises(ParseError) as err:
            loader(path)
        assert str(err.value) == f"line {line}, column {column}: {message}"
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize("rows,line,fault", [
        ("s,onset,-1,\ns,offset,3,\n", 2, "event [-1, 3) starts before step 0"),
        ("s,onset,17,\ns,offset,11,\n", 2, "event [17, 11) has no positive duration"),
        ("s,onset,4,\ns,offset,4,\n", 2, "event [4, 4) has no positive duration"),
        ("s,onset,8,\ns,offset,12,\ns,onset,1,\ns,offset,3,\n", 4,
         "event at onset 1 overlaps or precedes the previous event ending at 12"),
        ("s,onset,1,\ns,offset,6,\nt,onset,0,\ns,onset,5,\ns,offset,9,\nt,offset,2,\n", 5,
         "event at onset 5 overlaps or precedes the previous event ending at 6"),
    ], ids=["negative-onset", "offset-before-onset", "zero-duration", "unsorted",
            "overlapping"])
    def test_intervals_checked(self, tmp_path, rows, line, fault):
        path = tmp_path / "events.csv"
        path.write_text("series_id,event,step,score\n" + rows)
        with pytest.raises(InvalidEvents) as err:
            load_events(path)
        assert str(err.value) == f"{path}: series 's', line {line}: {fault}"

    @pytest.mark.parametrize("rows,line,fault", [
        ("s,onset,1,0.5\ns,onset,-5,0.5\n", 3, "step -5 is before step 0"),
        ("s,point,-1,0.5\n", 2, "step -1 is before step 0"),
        ("s,onset,1,nan\n", 2, "score nan is not finite"),
        ("s,offset,3,-inf\n", 2, "score -inf is not finite"),
        # series 't' comes first, but the first faulty row of the file is s's
        ("t,onset,1,0.5\ns,offset,2,inf\nt,onset,-3,0.5\n", 3, "score inf is not finite"),
    ], ids=["negative-step", "negative-point", "nan-score", "infinite-score", "interleaved"])
    def test_scored_rows_checked(self, tmp_path, rows, line, fault):
        path = tmp_path / "events.csv"
        path.write_text("series_id,event,step,score\n" + rows)
        with pytest.raises(InvalidEvents) as err:
            load_scored_events(path)
        assert str(err.value) == f"{path}: series 's', line {line}: {fault}"

    @pytest.mark.parametrize("rows,error,message", [
        # series 'a' comes first, but b's reversed interval is on line 3
        ("a,onset,0,\nb,onset,5,\nb,offset,3,\na,offset,10,\na,onset,8,\na,offset,12,\n",
         InvalidEvents, "{path}: series 'b', line 3: event [5, 3) has no positive duration"),
        ("a,onset,1,\na,offset,6,\nb,offset,2,\na,onset,3,\na,offset,9,\n",
         ParseError, "line 4, column 2: series 'b': offset without preceding onset"),
        ("a,onset,1,\nb,onset,9,\nb,offset,4,\na,onset,2,\na,offset,3,\n",
         InvalidEvents, "{path}: series 'b', line 3: event [9, 4) has no positive duration"),
        # the points before s's onset on line 4 are checked
        ("s,point,3,\ns,point,1,\ns,onset,5,\n",
         InvalidEvents, "{path}: series 's', line 3: point 1 precedes previous 3"),
        # the interval before a's double onset on line 5 is checked
        ("a,onset,5,\na,offset,3,\na,onset,7,\na,onset,8,\n",
         InvalidEvents, "{path}: series 'a', line 2: event [5, 3) has no positive duration"),
    ], ids=["event-before-event", "pairing-before-event", "event-before-pairing",
            "points-before-mix", "event-before-own-pairing"])
    def test_interleaved_series_report_the_earliest_line(self, tmp_path, rows, error, message):
        path = tmp_path / "events.csv"
        path.write_text("series_id,event,step,score\n" + rows)
        with pytest.raises(DataError) as err:
            load_events(path)
        assert type(err.value) is error
        assert str(err.value) == message.format(path=path)

    @pytest.mark.parametrize("loader,rows,message", [
        # line 3 breaks the pairing before line 5's bad type
        (load_events, "a,onset,1,\na,onset,2,\na,offset,3,\nb,start,4,\n",
         "line 3, column 2: series 'a': onset without preceding offset"),
        # the bad row is dropped, but a's onset on line 2 is not reported as unpaired
        (load_events, "a,onset,1,\na,start,2,\n", "line 3, column 2: bad event type 'start'"),
        # a's first event is reversed although its offset follows b's bad step
        (load_events, "a,onset,5,\nb,onset,x,\na,offset,3,\n",
         "{path}: series 'a', line 2: event [5, 3) has no positive duration"),
        (load_events, "a,onset,1,\na,offset,3,\nb,onset,2,bad\na,onset,0,\na,offset,2,\n",
         "line 4, column 4: bad score 'bad'"),
        (load_scored_events, "a,onset,-1,0.5\nb,start,2,0.5\n",
         "{path}: series 'a', line 2: step -1 is before step 0"),
        (load_scored_events, "a,onset,1,0.5\nb,onset,x,0.5\na,offset,2,\n",
         "line 3, column 3: bad step 'x'"),
    ], ids=["pairing-before-cell", "cell-after-onset", "event-before-cell", "cell-before-event",
            "detection-before-cell", "cell-before-unscored"])
    def test_bad_cell_reports_the_earliest_line(self, tmp_path, loader, rows, message):
        path = tmp_path / "events.csv"
        path.write_text("series_id,event,step,score\n" + rows)
        with pytest.raises(DataError) as err:
            loader(path)
        assert str(err.value) == message.format(path=path)

    @pytest.mark.parametrize("rows,error,message", [
        ("s,onset,1,0.5\ns,start,2,0.5\n", ParseError, "line 3, column 2: bad event type 'start'"),
        ("s,onset,1,0.5\ns,,1,0.5\n", ParseError, "line 3, column 2: bad event type ''"),
        ("s,onset,1,0.5\ns,offset,2.5,0.5\n", ParseError, "line 3, column 3: bad step '2.5'"),
        ("s,onset,1,0.5\ns,offset,2,high\n", ParseError, "line 3, column 4: bad score 'high'"),
        ("s,onset,1,0.5\ns,point,2,\n", ParseError,
         "line 3, column 4: series 's': detection rows need a score"),
        ("s,onset,-1,0.5\n", InvalidEvents, "{path}: series 's', line 2: step -1 is before step 0"),
        ("s,onset,1,nan\n", InvalidEvents, "{path}: series 's', line 2: score nan is not finite"),
        ("s,offset,1,1e999\n", InvalidEvents,
         "{path}: series 's', line 2: score inf is not finite"),
        ("s,onset,1\n", ParseError, "line 2, column 0: expected 4 fields, found 3"),
        ("s,onset,1,0.5,x\n", ParseError, "line 2, column 0: expected 4 fields, found 5"),
        # the first cell in row order names the fault: kind, step, then score
        ("s,begin,-1,nan\n", ParseError, "line 2, column 2: bad event type 'begin'"),
        ("s,onset,x,\n", ParseError, "line 2, column 3: bad step 'x'"),
        ("s,onset,-1,\n", ParseError, "line 2, column 4: series 's': detection rows need a score"),
        # two faults in different series: the one on the earlier line is raised
        ("a,onset,1,0.5\nb,onset,-2,0.5\na,offset,3,inf\n", InvalidEvents,
         "{path}: series 'b', line 3: step -2 is before step 0"),
        ("a,onset,1,0.5\nb,onset,x,0.5\na,offset,-3,0.5\n", ParseError,
         "line 3, column 3: bad step 'x'"),
    ], ids=[
        "bad-kind", "empty-kind", "bad-step", "bad-score", "missing-score", "negative-step",
        "nan-score", "overflowing-score", "too-few-fields", "too-many-fields",
        "kind-before-step", "step-before-score", "score-before-step-rule",
        "two-series-detection-first", "two-series-cell-first",
    ])
    def test_bad_detection_rows_keep_their_errors(self, tmp_path, rows, error, message):
        path = tmp_path / "events.csv"
        path.write_text("series_id,event,step,score\n" + rows)
        with pytest.raises(DataError) as err:
            load_scored_events(path)
        assert type(err.value) is error
        assert str(err.value) == message.format(path=path)
        if error is ParseError:
            line, column = map(int, re.match(r"line (\d+), column (\d+): ", message).groups())
            assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize("rows,line,fault", [
        ("s,point,3,\ns,point,-4,\n", 3, "point -4 is before step 0"),
        ("t,point,1,\ns,point,9,\nt,point,2,\ns,point,4,\n", 5, "point 4 precedes previous 9"),
    ], ids=["negative-point", "unsorted-point"])
    def test_points_checked(self, tmp_path, rows, line, fault):
        path = tmp_path / "events.csv"
        path.write_text("series_id,event,step,score\n" + rows)
        with pytest.raises(InvalidEvents) as err:
            load_events(path)
        assert str(err.value) == f"{path}: series 's', line {line}: {fault}"
