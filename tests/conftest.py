"""Shared reference implementations (oracles) used across test modules.

These are deliberately written as straightforward, loop-based code with no
shared machinery with the package under test, so agreement is evidence of
correctness rather than of shared bugs.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np


def reflect_index(i: int, n: int) -> int:
    """Half-sample symmetric reflection of an out-of-range index."""
    while not 0 <= i < n:
        if i < 0:
            i = -i - 1
        else:
            i = 2 * n - 1 - i
    return i


def dense_smooth_oracle(x, sigma: float, truncate: float = 4.0) -> np.ndarray:
    """Direct O(T * w) Gaussian convolution with explicit index reflection."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    radius = math.ceil(truncate * sigma)
    weights = [math.exp(-(k * k) / (2.0 * sigma * sigma)) for k in range(-radius, radius + 1)]
    total = sum(weights)
    weights = [w / total for w in weights]
    out = np.zeros(n)
    for t in range(n):
        acc = 0.0
        for k in range(-radius, radius + 1):
            acc += weights[k + radius] * x[reflect_index(t + k, n)]
        out[t] = acc
    return out


def brute_force_peaks(x, min_distance: int = 1, min_height=None):
    """Independent peak reference: plateau scan, height filter, greedy spacing,
    then prominence by full valley scans.  Returns [(index, height, prominence)]
    sorted by index."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)

    candidates = []
    for start in range(1, n - 1):
        if start > 0 and x[start - 1] == x[start]:
            continue  # not the first sample of its run
        end = start
        while end + 1 < n and x[end + 1] == x[start]:
            end += 1
        left_lower = start > 0 and x[start - 1] < x[start]
        right_lower = end < n - 1 and x[end + 1] < x[start]
        if left_lower and right_lower:
            candidates.append((start + end) // 2)

    if min_height is not None:
        candidates = [c for c in candidates if x[c] >= min_height]

    by_height = sorted(candidates, key=lambda c: (-x[c], c))
    kept = []
    for c in by_height:
        ok = True
        for other in kept:
            if abs(c - other) < min_distance:
                ok = False
                break
        if ok:
            kept.append(c)

    results = []
    for c in sorted(kept):
        h = x[c]
        lo = c
        while lo - 1 >= 0 and x[lo - 1] <= h:
            lo -= 1
        hi = c
        while hi + 1 < n and x[hi + 1] <= h:
            hi += 1
        left_valley = float(np.min(x[lo : c + 1]))
        right_valley = float(np.min(x[c : hi + 1]))
        results.append((c, float(h), float(h) - max(left_valley, right_valley)))
    return results


def window_contrast_oracle(x, alpha: int) -> np.ndarray:
    """Loop-based mean-after minus mean-before with edge padding."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)

    def at(i: int) -> float:
        return float(x[min(max(i, 0), n - 1)])

    out = np.zeros(n)
    for t in range(n):
        after = sum(at(t + k) for k in range(1, alpha + 1)) / alpha
        before = sum(at(t - k) for k in range(1, alpha + 1)) / alpha
        out[t] = after - before
    return out


def csv_table_oracle(header, rows) -> str:
    """The text the csv module writes for a header and rows, as data.write_table
    wrote it before it formatted fields itself: each float as %.17g, then
    csv.writer with CRLF line ends (so a '\r' in a field is quoted), and the
    CR of each line end dropped."""
    lines = []
    for row in [header, *rows]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(
            ["%.17g" % v if isinstance(v, float) else v for v in row]
        )
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)
