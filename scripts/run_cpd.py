#!/usr/bin/env python3
"""Change-point detection on synthetic onset points.

Trains the single-output-channel density model under 4-fold CV, pools the
held-out detections, and reports the pooled EDAP plus micro-averaged
precision/recall/F1 at each metric tolerance.

Usage: python3 scripts/run_cpd.py [--jobs N]
"""

import argparse
import time
from pathlib import Path

import evreg
from evreg.metric import match_events, prf_from_counts

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "cpd.yaml"


def micro_prf(predictions, truth, tol: int) -> tuple[float, float, float]:
    tp = fp = fn = 0
    for sid, pred in predictions.items():
        steps = [ev.step for ev in truth[sid].events]
        result = match_events(pred.onsets, steps, tol)
        tp += result.num_tp
        fp += result.num_fp
        fn += result.unmatched_truth
    return prf_from_counts(tp, fp, fn)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    config = evreg.load_config(CONFIG_PATH)
    start = time.monotonic()
    cv = evreg.run_cv(config, jobs=args.jobs)
    elapsed = time.monotonic() - start

    print(f"pooled edap {cv.pooled_edap:.4f} ({elapsed:.0f}s)")
    print(f"{'tolerance':>10} {'precision':>10} {'recall':>10} {'f1':>10}")
    for tol in config.metric.tolerances:
        p, r, f1 = micro_prf(cv.predictions, cv.truth, tol)
        print(f"{tol:>10} {p:>10.4f} {r:>10.4f} {f1:>10.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
