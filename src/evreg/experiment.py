"""Cross-validated training, post-hoc decode tuning, and dataset assembly.

The flow mirrors the evaluation protocol the package is built around: series
are split into k folds by id, each fold's model is trained on the rest and
scored on the held-out part every epoch, the raw held-out outputs of all
folds are pooled, and a single pooled score is reported.  Decode parameters
are tuned afterwards on those pooled outputs, so the sweep never retrains.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .config import ExperimentConfig, GridSpec, PathsSpec
from .data import SynthConfig, downsample, load_events, load_series, synth_generate
from .decode import DecodeParams
from .errors import EmptyGrid, InvalidConfig, InvalidEvents, IoError, ShapeMismatch, TooFewSeries
from .metric import edap, edap_table
# predict is not called here since validation runs batched forwards, but
# perfbench's tests read it as experiment.predict
from .model import EpochStats, TrainResult, forward, predict, train  # noqa: F401
from .targets import sigma_schedule
from .types import POINT, EventSet, ScoredEvents, TimeSeries, event_fault, points_from_intervals


def build_dataset(
    config: ExperimentConfig,
) -> tuple[list[TimeSeries], dict[str, EventSet]]:
    """Materialize the configured dataset at model resolution.

    Synthetic data is generated in place; a paths dataset reads every *.csv
    in the series directory (sorted by name) plus the shared events file.
    Every series needs the first one's channel names, in order, and length,
    and truth that passes event_fault at that length, checked before
    downsampling could clip an offset that lies past the end.
    Downsampling and, for point-truth objectives, the collapse of interval
    truth to onset points happen here, so callers always see final-resolution
    steps.  Point truth passes through unchanged.
    """
    if isinstance(config.data, SynthConfig):
        pairs = synth_generate(config.data)
    else:
        pairs = _load_pairs(config.data)
    first = pairs[0][0]
    for series, events in pairs:
        if (series.channel_names, series.num_steps) != (first.channel_names, first.num_steps):
            where = ""
            if isinstance(config.data, PathsSpec):
                where = f" (file {Path(config.data.series_dir) / series.series_id}.csv)"
            raise ShapeMismatch(
                f"series {series.series_id!r}{where} has input shape "
                f"{(len(series.channels), series.num_steps)} and channels "
                f"{series.channel_names}, series {first.series_id!r} has "
                f"{(len(first.channels), first.num_steps)} and {first.channel_names}"
            )
        fault = event_fault(events, series.num_steps)
        if fault is not None:
            where = f" (file {config.data.events})" if isinstance(config.data, PathsSpec) else ""
            raise type(fault[1])(f"series {series.series_id!r}{where}: {fault[1]}")
    if config.downsample > 1:
        pairs = [
            downsample(series, config.downsample, events)
            for series, events in pairs
        ]
    if config.spec.point_truth:
        pairs = [
            (series, events if events.kind == POINT else points_from_intervals(events))
            for series, events in pairs
        ]
    series_list = [series for series, _ in pairs]
    truth = {events.series_id: events for _, events in pairs}
    return series_list, truth


def _load_pairs(paths: PathsSpec) -> list[tuple[TimeSeries, EventSet]]:
    series_dir = Path(paths.series_dir)
    if not series_dir.is_dir():
        raise IoError(f"series directory {series_dir} does not exist")
    files = sorted(series_dir.glob("*.csv"))
    if not files:
        raise IoError(f"no series CSVs found under {series_dir}")
    events_by_id = load_events(paths.events)
    pairs = []
    for path in files:
        series = load_series(path)
        if series.series_id not in events_by_id:
            raise InvalidEvents(f"no events for series {series.series_id!r}")
        pairs.append((series, events_by_id[series.series_id]))
    return pairs


def encode_targets(
    series: TimeSeries,
    events: EventSet,
    config: ExperimentConfig,
    sigma: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One training item: stacked input channels and the objective's target.

    sigma, when given, overrides the pdf width (used by decay schedules);
    segmentation ignores it and yields integer labels.
    """
    spec = config.spec
    pdf = config.pdf if sigma is None or spec.segmentation else replace(config.pdf, sigma=sigma)
    y = spec.encode(events, series.num_steps, pdf).channels
    return series.as_array(), y[0].astype(np.int64) if spec.segmentation else y


def fold_splits(
    series_ids: Sequence[str], folds: int
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """(train_ids, val_ids) per fold; contiguous blocks of the sorted ids."""
    ids = sorted(series_ids)
    if folds < 2:
        raise InvalidConfig(f"folds={folds}, expected >= 2")
    if len(ids) < folds:
        raise TooFewSeries(f"{len(ids)} series cannot fill {folds} folds")
    parts = np.array_split(np.asarray(ids, dtype=object), folds)
    out = []
    for part in parts:
        val = tuple(str(s) for s in part)
        held = set(val)
        out.append((tuple(s for s in ids if s not in held), val))
    return out


def decode_outputs(
    outputs: Mapping[str, np.ndarray],
    config: ExperimentConfig,
    params: DecodeParams,
) -> dict[str, ScoredEvents]:
    """Run the objective's decoder over raw model outputs, in one call for all series."""
    return _decode_at(outputs, config, params, (params.mu,))[0]


def _decode_at(outputs, config, params, mus: tuple) -> list[dict[str, ScoredEvents]]:
    """decode_outputs at each mu in mus, which holds one value unless the
    record reads_mu; one call of the record's decoder decodes every series."""
    sids = sorted(outputs)
    decoded = config.spec.decode([outputs[sid] for sid in sids], params, mus)
    return [dict(zip(sids, preds)) for preds in decoded]


@dataclass(frozen=True)
class FoldResult:
    """Held-out outputs and decoded predictions of one fold's best epoch.

    edap is that epoch's validation score, trace the training history.
    """

    fold_index: int
    val_ids: tuple[str, ...]
    outputs: dict[str, np.ndarray]
    predictions: dict[str, ScoredEvents]
    trace: tuple[EpochStats, ...]
    best_epoch: int
    edap: float


@dataclass(frozen=True)
class CvResult:
    """Per-fold results, pooled raw outputs and their truth, and the pooled
    edap_table with its mean."""

    folds: tuple[FoldResult, ...]
    outputs: dict[str, np.ndarray]
    predictions: dict[str, ScoredEvents]
    pooled_edap: float
    pooled_table: dict[tuple[str, int], float]
    truth: dict[str, EventSet]


def fit(
    config: ExperimentConfig,
    pairs: Sequence[tuple[TimeSeries, EventSet]],
    fold_index: int = 0,
    val_scorer: Callable | None = None,
) -> TrainResult:
    """Train config.model, seeded model.seed + fold_index, on (series, truth) pairs.

    A train.sigma_start schedule re-encodes the targets every epoch after
    the first.
    """
    model_config = replace(config.model, seed=config.model.seed + fold_index)
    tc = config.train

    def encode_all(epoch: int) -> list[tuple[np.ndarray, np.ndarray]]:
        sigma = None
        if tc.sigma_start is not None:
            sigma = sigma_schedule(epoch, tc.epochs, tc.sigma_start, tc.sigma_end)
        return [encode_targets(s, e, config, sigma=sigma) for s, e in pairs]

    items = encode_all(0)
    # train checks that every item has the first one's shape
    if items and items[0][0].shape[0] != model_config.in_channels:
        raise InvalidConfig(
            f"model expects {model_config.in_channels} input channels, "
            f"dataset provides {items[0][0].shape[0]}"
        )
    refresh = None
    if tc.sigma_start is not None:
        def refresh(epoch: int):
            return items if epoch == 0 else encode_all(epoch)
    return train(items, model_config, tc, val_scorer=val_scorer, refresh_targets=refresh)


def _run_fold(payload) -> FoldResult:
    config, fold_index, train_pairs, val_pairs = payload
    val_ids = [s.series_id for s, _ in val_pairs]
    val_x = np.stack([s.as_array() for s, _ in val_pairs])
    val_truth = {s.series_id: e for s, e in val_pairs}
    batch = config.train.batch_size

    # (outputs, predictions) of every epoch; the fold keeps its best epoch's
    scored: list[tuple[dict[str, np.ndarray], dict[str, ScoredEvents]]] = []

    def val_scorer(params) -> float:
        # forward is per series, so batching gives each series predict's bytes
        outputs = {}
        for start in range(0, len(val_ids), batch):
            out = forward(params, val_x[start : start + batch], config.model)
            outputs.update(zip(val_ids[start : start + batch], out))
        preds = decode_outputs(outputs, config, config.decode)
        scored.append((outputs, preds))
        return edap(preds, val_truth, config.metric)

    result = fit(config, train_pairs, fold_index, val_scorer)
    outputs, preds = scored[result.best_epoch]
    return FoldResult(
        fold_index=fold_index,
        val_ids=tuple(sorted(val_ids)),
        outputs=outputs,
        predictions=preds,
        trace=tuple(result.trace),
        best_epoch=result.best_epoch,
        edap=result.trace[result.best_epoch].val_score,
    )


def run_cv(config: ExperimentConfig, jobs: int = 1) -> CvResult:
    """k-fold cross-validation; the held-out outputs are pooled and scored once.

    Folds are independent, so jobs > 1 runs them in up to jobs worker
    processes, never more than there are folds; the result is identical
    either way because each fold is deterministic and the pooling step sorts
    by series id.  jobs < 1 raises InvalidConfig.
    """
    if jobs < 1:
        raise InvalidConfig(f"jobs={jobs}, expected >= 1")
    series_list, truth = build_dataset(config)
    by_id = {s.series_id: (s, truth[s.series_id]) for s in series_list}
    payloads = [
        (config, i, [by_id[sid] for sid in train_ids], [by_id[sid] for sid in val_ids])
        for i, (train_ids, val_ids) in enumerate(fold_splits(list(by_id), config.folds))
    ]
    workers = min(jobs, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            folds = list(pool.map(_run_fold, payloads))
    else:
        folds = [_run_fold(p) for p in payloads]

    outputs: dict[str, np.ndarray] = {}
    predictions: dict[str, ScoredEvents] = {}
    for fold in folds:
        outputs.update(fold.outputs)
        predictions.update(fold.predictions)
    pooled = edap_table(predictions, truth, config.metric)
    return CvResult(
        folds=tuple(folds),
        outputs=outputs,
        predictions=predictions,
        pooled_edap=float(np.mean(list(pooled.values()))),
        pooled_table=pooled,
        truth=truth,
    )


@dataclass(frozen=True)
class GridResult:
    """Winning decode cell plus the full (mu, sigma, score) table."""

    best_mu: float
    best_sigma: float | None
    best_score: float
    default_score: float
    table: tuple[tuple[float, float | None, float], ...]


def _sigma_order(sigma: float | None) -> tuple[int, float]:
    return (0, 0.0) if sigma is None else (1, sigma)


def grid_search(
    outputs: Mapping[str, np.ndarray],
    truth: Mapping[str, EventSet],
    grid: GridSpec,
    config: ExperimentConfig,
) -> GridResult:
    """Sweep decode parameters over already-produced model outputs.

    The cells are the mu x sigma product.  Unless config.spec.reads_mu, mu is
    pinned at the configured default and only sigma is walked.  Each sigma is
    one call of the record's decoder, on every series, with all of that
    sigma's mus, so a decoder that sweeps mu can smooth each series once per
    sigma.  Ties prefer no smoothing, then smaller sigma, then smaller mu.
    """
    mus = grid.mu if config.spec.reads_mu else (config.decode.mu,)
    cells = [(m, s) for m in mus for s in grid.sigma]
    if not cells:
        raise EmptyGrid("no grid cells to evaluate")
    default = (config.decode.mu, config.decode.sigma)
    wanted = dict.fromkeys([*cells, default])
    scores = {}
    for sigma in dict.fromkeys(s for _, s in wanted):
        sigma_mus = tuple(m for m, s in wanted if s == sigma)
        params = replace(config.decode, sigma=sigma)
        decoded = _decode_at(outputs, config, params, sigma_mus)
        found = [edap(preds, truth, config.metric) for preds in decoded]
        scores.update(zip([(mu, sigma) for mu in sigma_mus], found))
    table = tuple((mu, sigma, scores[mu, sigma]) for mu, sigma in cells)
    best_mu, best_sigma, best_score = min(
        table, key=lambda row: (-row[2], _sigma_order(row[1]), row[0])
    )
    return GridResult(
        best_mu=best_mu,
        best_sigma=best_sigma,
        best_score=best_score,
        default_score=scores[default],
        table=table,
    )
