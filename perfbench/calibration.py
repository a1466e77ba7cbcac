"""Host-speed calibration: a fixed kernel timed all through every measurement.

The benchmark runs on shared machines whose speed switches between a fast and
a slow state (up to 1.7x apart) every few seconds, with no change in the work
done.  An operation of twenty seconds spends a different share of its time in
each state on every run.  So while a step (a set-up, an operation) runs, a
timer signal interrupts it every PERIOD seconds and times one call of a fixed
kernel.  Each stretch of the step between two kernel calls is rescaled by the
kernel times at its two ends:

    stretch seconds * REFERENCE_S / (mean of the two kernel times)

so the step is reported in seconds on a host that runs the kernel in
REFERENCE_S.  The kernel calls themselves are not counted.  Python runs
signal handlers between bytecodes, so the kernel never interrupts numpy.

The kernel is the benchmark's own numpy code, shaped like the program's hot
paths: a conv forward and weight gradient in the einsum form the model uses,
at the pinned (C=8, T=512) shape, and a scalar peak scan over a numpy array
like find_peaks.  It takes about 2 ms, so sampling it every PERIOD costs the
step about 2%.  It calls nothing in src/evreg, so no change to the
program moves it.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# median kernel time on the reference host (2-vCPU Intel Xeon VM, Python
# 3.11.7, numpy 2.4.6, one BLAS thread) in its fast state
REFERENCE_S = 0.0020
PERIOD = 0.1

_rng = np.random.default_rng(20240823)
_X = _rng.standard_normal((2, 8, 512 + 4))
_W = _rng.standard_normal((16, 8, 5))
_SCAN = _rng.standard_normal(1024)


def kernel() -> int:
    windows = sliding_window_view(_X, 5, axis=2)
    out = np.einsum("bctk,ock->bot", windows, _W)
    grad = np.einsum("bot,bctk->ock", out, windows)
    peaks = 0
    s = _SCAN
    for _ in range(4):
        for i in range(1, len(s) - 1):
            if s[i] > s[i - 1] and s[i] >= s[i + 1]:
                peaks += 1
    return peaks + int(grad.size)


def kernel_seconds(reps: int = 1) -> float:
    """Median wall time of reps kernel calls."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass(frozen=True)
class Timing:
    """One step's wall and CPU seconds on the reference host, and on this one."""

    wall: float
    cpu: float
    raw_wall: float


class HostClock:
    """Times steps in reference-host seconds (see the module docstring)."""

    def __init__(self, period: float = PERIOD):
        self.period = period
        self._busy = False

    def _close_stretch(self) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        kernel_s = kernel_seconds()
        factor = REFERENCE_S / ((self._kernel_s + kernel_s) / 2.0)
        self._raw += wall - self._wall
        self._scaled_wall += (wall - self._wall) * factor
        self._scaled_cpu += (cpu - self._cpu) * factor
        self._kernel_s = kernel_s
        self._wall, self._cpu = time.perf_counter(), time.process_time()

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.mark()

    def mark(self) -> float:
        """Inside run(): the step's reference seconds so far.

        The difference of two marks times a part of the step on its own.
        """
        self._busy = True
        try:
            self._close_stretch()
        finally:
            self._busy = False
        return self._scaled_wall

    def run(self, fn: Callable, *args) -> tuple[object, Timing]:
        """fn(*args) and its Timing; the timer is stopped also when fn raises."""
        self._raw = self._scaled_wall = self._scaled_cpu = 0.0
        self._kernel_s = kernel_seconds()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.mark()
        return result, Timing(self._scaled_wall, self._scaled_cpu, self._raw)
