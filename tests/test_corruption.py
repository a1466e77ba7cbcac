"""Any byte-level corruption of a file evreg reads raises an EvregError.

Each property starts from a file that loads, replaces, inserts or deletes one
byte or truncates the file, and loads the result: the loader either
succeeds or raises a subclass of EvregError, never another exception.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evreg.config import load_config
from evreg.data import load_events, load_scored_events, load_series, save_events, save_series
from evreg.errors import EvregError
from evreg.model import ModelConfig, init_params, load_params, save_params
from evreg.types import INTERVAL, EventSet, IntervalEvent, ScoredEvents, TimeSeries

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "benchmark_regression.yaml"


def _write_series(path: Path) -> None:
    rng = np.random.default_rng(0)
    channels = {"a": rng.normal(size=12), "b": rng.normal(size=12) * 1e-3}
    save_series(path, TimeSeries.build("s", channels))


def _write_events(path: Path) -> None:
    save_events(path, {
        "s": EventSet("s", INTERVAL, (IntervalEvent(1, 4, 0.5), IntervalEvent(6, 9))),
        "t": EventSet("t", INTERVAL, ()),
    })


def _write_detections(path: Path) -> None:
    save_events(path, {
        "s": ScoredEvents(onsets=((1, 0.5), (7, 0.25)), offsets=((3, 0.75),)),
        "t": ScoredEvents(),
    })


def _write_checkpoint(path: Path) -> None:
    net = ModelConfig(in_channels=2, hidden_channels=(3,), kernel_size=3)
    save_params(path, init_params(net, np.random.default_rng(0)))


def _write_config(path: Path) -> None:
    path.write_bytes(CONFIG.read_bytes())


# loader name -> (loader, writer of a valid file, file name)
CASES = {
    "load_series": (load_series, _write_series, "s.csv"),
    "load_events": (load_events, _write_events, "events.csv"),
    "load_scored_events": (load_scored_events, _write_detections, "predictions.csv"),
    "load_params": (load_params, _write_checkpoint, "model.ckpt"),
    "load_config": (load_config, _write_config, "config.yaml"),
}

_MUTATIONS = st.tuples(
    st.sampled_from(["replace", "insert", "delete", "truncate"]),
    st.integers(0, 1 << 16),
    st.integers(0, 255),
)


def _mutate(blob: bytes, op: str, pos: int, byte: int) -> bytes:
    pos %= len(blob)
    if op == "replace":
        return blob[:pos] + bytes([byte]) + blob[pos + 1 :]
    if op == "insert":
        return blob[:pos] + bytes([byte]) + blob[pos:]
    if op == "delete":
        return blob[:pos] + blob[pos + 1 :]
    return blob[:pos]


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=300, deadline=None)
@given(mutation=_MUTATIONS)
def test_corruption_raises_only_evreg_errors(tmp_path_factory, name, mutation):
    loader, write, file_name = CASES[name]
    root = tmp_path_factory.mktemp(name)
    valid = root / f"valid{Path(file_name).suffix}"
    write(valid)
    loader(valid)
    path = root / file_name
    path.write_bytes(_mutate(valid.read_bytes(), *mutation))
    try:
        loader(path)
    except EvregError:
        pass
