#!/usr/bin/env python3
"""Regression-vs-segmentation comparison on the synthetic benchmark.

Runs 4-fold cross-validation for both objectives on the same dataset, tunes
the decode parameters of each by grid search over the pooled held-out
outputs, and prints a default/tuned score table.  Expect a few minutes of
CPU time.

Usage: python3 scripts/run_benchmark.py [--jobs N]
"""

import argparse
import time
from pathlib import Path

import evreg

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run(config_path: Path, jobs: int):
    config = evreg.load_config(config_path)
    start = time.monotonic()
    cv = evreg.run_cv(config, jobs=jobs)
    sweep = evreg.grid_search(cv.outputs, cv.truth, config.grid, config)
    elapsed = time.monotonic() - start
    return cv, sweep, elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    rows = []
    for name, filename in (
        ("regression (gaussian)", "benchmark_regression.yaml"),
        ("segmentation (threshold)", "benchmark_segmentation.yaml"),
    ):
        cv, sweep, elapsed = run(CONFIG_DIR / filename, args.jobs)
        rows.append((name, sweep, cv, elapsed))
        folds = " ".join(f"{f.edap:.3f}" for f in cv.folds)
        print(f"{name}: folds [{folds}] pooled {cv.pooled_edap:.4f} ({elapsed:.0f}s)")

    print()
    print(f"{'objective':<26} {'default':>8} {'tuned':>8} {'best cell':>16}")
    for name, sweep, _, _ in rows:
        sigma = "none" if sweep.best_sigma is None else f"{sweep.best_sigma:g}"
        cell = f"mu={sweep.best_mu:g} sigma={sigma}"
        print(f"{name:<26} {sweep.default_score:>8.4f} {sweep.best_score:>8.4f} {cell:>16}")

    margin = rows[0][1].best_score - rows[1][1].best_score
    print(f"\ntuned regression - tuned segmentation = {margin:+.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
