"""Command-line front end: synth, encode, train, decode, eval, cv, grid.

Every subcommand reads one YAML experiment config and writes plain-text
artifacts (CSV reports, checkpoints) into an output directory resolved as:
the --out flag if given, else $EVREG_OUT_DIR, else ./evreg_out.  main loads
the config and resolves the directory once.  Every subcommand but synth takes
its series and truth from build_dataset, at model resolution; eval --truth
only swaps in another paths events file.  All floats are serialized with
repr-exact precision, so repeated runs with the same seed and config produce
byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
divergence.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, PathsSpec, load_config, override_seed
from .data import (
    SynthConfig, load_scored_events, save_events, save_series, synth_generate, write_table,
)
from .errors import ConfigError, DataError, EvregError, InvalidConfig, IoError, NumericError
from .experiment import build_dataset, decode_outputs, fit, grid_search, run_cv
from .metric import edap_table
from .model import load_params, predict, save_params
from .types import TimeSeries

_OUT_ENV = "EVREG_OUT_DIR"


def _make_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create directory {path}: {exc}") from exc
    return path


def _resolve_out(arg: str | None) -> Path:
    return _make_dir(Path(arg or os.environ.get(_OUT_ENV) or "evreg_out"))


def _load(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        config = override_seed(config, args.seed)
    return config


def _write_trace(path: Path, trace) -> None:
    rows = ((s.epoch, s.train_loss, s.val_score) for s in trace)
    write_table(path, ["epoch", "loss", "val_edap"], rows)


def _write_report(path: Path, table: dict[tuple[str, int], float], mean: float) -> None:
    rows = [(cls, tol, ap) for (cls, tol), ap in table.items()]
    write_table(path, ["class", "tolerance", "ap"], [*rows, ("mean", "all", mean)])


# -- subcommands ---------------------------------------------------------------


def _cmd_synth(args, config: ExperimentConfig, out: Path) -> int:
    if not isinstance(config.data, SynthConfig):
        raise InvalidConfig("synth requires a data.synth section")
    series_dir = _make_dir(out / "series")
    pairs = synth_generate(config.data)
    for series, _ in pairs:
        save_series(series_dir / f"{series.series_id}.csv", series)
    save_events(out / "events.csv", {e.series_id: e for _, e in pairs})
    print(f"wrote {len(pairs)} series to {series_dir} and {out / 'events.csv'}")
    return 0


def _cmd_encode(args, config: ExperimentConfig, out: Path) -> int:
    targets_dir = _make_dir(out / "targets")
    series_list, truth = build_dataset(config)
    for series in series_list:
        target = config.spec.encode(truth[series.series_id], series.num_steps, config.pdf)
        channels = dict(zip(target.names, target.channels))
        built = TimeSeries.build(series.series_id, channels)
        save_series(targets_dir / f"{series.series_id}.csv", built)
    print(f"wrote {len(series_list)} target files to {targets_dir}")
    return 0


def _cmd_train(args, config: ExperimentConfig, out: Path) -> int:
    series_list, truth = build_dataset(config)
    result = fit(config, [(s, truth[s.series_id]) for s in series_list])
    save_params(out / "model.ckpt", result.params)
    _write_trace(out / "train_trace.csv", result.trace)
    last = result.trace[-1].train_loss
    print(f"trained {config.train.epochs} epochs, final loss {last:.6g}")
    print(f"checkpoint: {out / 'model.ckpt'}")
    return 0


def _cmd_decode(args, config: ExperimentConfig, out: Path) -> int:
    params = load_params(args.checkpoint)
    series_list, _ = build_dataset(config)
    outputs = {
        s.series_id: predict(params, s.as_array(), config.model)
        for s in series_list
    }
    predictions = decode_outputs(outputs, config, config.decode)
    save_events(out / "predictions.csv", predictions)
    count = sum(len(p.onsets) + len(p.offsets) for p in predictions.values())
    print(f"decoded {count} detections to {out / 'predictions.csv'}")
    return 0


def _cmd_eval(args, config: ExperimentConfig, out: Path) -> int:
    if args.truth:
        if not isinstance(config.data, PathsSpec):
            raise InvalidConfig(
                "--truth replaces data.paths.events; synth truth is generated, not read"
            )
        config = replace(config, data=replace(config.data, events=args.truth))
    predictions = load_scored_events(args.pred)
    _, truth = build_dataset(config)
    table = edap_table(predictions, truth, config.metric)
    mean = float(np.mean(list(table.values())))
    _write_report(out / "report.csv", table, mean)
    print(f"edap {mean:.17g}")
    return 0


def _cmd_cv(args, config: ExperimentConfig, out: Path) -> int:
    result = run_cv(config, jobs=args.jobs)
    for fold in result.folds:
        _write_trace(out / f"fold{fold.fold_index}_trace.csv", fold.trace)
    save_events(out / "cv_predictions.csv", result.predictions)
    rows = [(fold.fold_index, fold.edap) for fold in result.folds]
    write_table(out / "cv_report.csv", ["fold", "edap"], [*rows, ("pooled", result.pooled_edap)])
    _write_report(out / "report.csv", result.pooled_table, result.pooled_edap)
    print(f"pooled edap {result.pooled_edap:.17g}")
    return 0


def _cmd_grid(args, config: ExperimentConfig, out: Path) -> int:
    result = run_cv(config, jobs=args.jobs)
    sweep = grid_search(result.outputs, result.truth, config.grid, config)
    rows = ((mu, "none" if sigma is None else sigma, score) for mu, sigma, score in sweep.table)
    write_table(out / "grid_table.csv", ["mu", "sigma", "edap"], rows)
    best_sigma = "none" if sweep.best_sigma is None else f"{sweep.best_sigma:.17g}"
    print(
        f"best mu {sweep.best_mu:.17g} sigma {best_sigma} "
        f"edap {sweep.best_score:.17g} (default {sweep.default_score:.17g})"
    )
    return 0


# -- argument parsing ----------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, jobs: bool = False) -> None:
    sub.add_argument("--config", required=True, help="YAML experiment config")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--seed", type=int, default=None, help="override every seed")
    if jobs:
        sub.add_argument(
            "--jobs", type=int, default=1, help="parallel fold workers (default 1)"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evreg",
        description="Event detection via density regression: data, training, "
        "decoding, and tolerance-based evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("synth", help="generate the synthetic dataset"))
    _add_common(sub.add_parser("encode", help="write target channels per series"))
    _add_common(sub.add_parser("train", help="train one model on every series"))

    decode = sub.add_parser("decode", help="decode events from a checkpoint")
    _add_common(decode)
    decode.add_argument("--checkpoint", required=True, help="model checkpoint")

    ev = sub.add_parser("eval", help="score predictions against ground truth")
    _add_common(ev)
    ev.add_argument("--pred", required=True, help="predictions events CSV")
    ev.add_argument("--truth", default=None, help="events CSV in place of data.paths.events")

    _add_common(sub.add_parser("cv", help="k-fold cross-validation"), jobs=True)
    _add_common(
        sub.add_parser("grid", help="decode-parameter grid search after cv"),
        jobs=True,
    )
    return parser


_COMMANDS = {
    "synth": _cmd_synth,
    "encode": _cmd_encode,
    "train": _cmd_train,
    "decode": _cmd_decode,
    "eval": _cmd_eval,
    "cv": _cmd_cv,
    "grid": _cmd_grid,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load(args)
        return _COMMANDS[args.command](args, config, _resolve_out(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except EvregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
