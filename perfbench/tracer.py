"""Outside-in span recorder: times calls into a package by swapping attributes.

A traced function is replaced, in every module that holds a reference to it,
by a wrapper that opens a span around the call.  Spans nest by call order
(the benchmark runs single-threaded), stay in memory, and are written out by
the caller at the end.  A span's self time is its duration minus the
durations of its direct children, so the self times of all spans under a root
add up to the root's duration.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from types import ModuleType
from typing import Callable, Iterable, Iterator, Sequence


class Recorder:
    """In-memory spans plus per-name self times, call counts and counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # (name, start, end, parent index or -1), in the order spans opened
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._child_s: list[float] = []
        self._open: Counter[str] = Counter()

    def call(self, name: str, func: Callable, *args, **kwargs):
        """Run func(*args, **kwargs) inside a span called name."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._child_s.append(0.0)
        self._open[name] += 1
        start = self.clock()
        try:
            return func(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self._open[name] -= 1
            duration = end - start
            self.self_s[name] += duration - self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += duration
            self.calls[name] += 1
            self.spans[index] = (name, start, end, parent)

    def inside(self, name: str) -> bool:
        """True while a span called name is open."""
        return self._open[name] > 0

    def duration(self, name: str) -> float:
        """Summed duration of every closed span called name."""
        return sum(s[2] - s[1] for s in self.spans if s is not None and s[0] == name)


def holders(func: Callable, modules: Iterable[ModuleType]) -> list[tuple[ModuleType, str]]:
    """Every (module, attribute) pair among modules that is bound to func."""
    return [
        (module, attr)
        for module in modules
        for attr, value in vars(module).items()
        if value is func
    ]


@contextmanager
def swapped(replacements: Sequence[tuple[object, str, object]]) -> Iterator[None]:
    """Set each obj.attr = new for the block; restore every original after it.

    Restoration runs in reverse order and also when the block raises, so a
    failed operation never leaves a wrapper installed.
    """
    saved: list[tuple[object, str, object]] = []
    try:
        for obj, attr, new in replacements:
            saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, new)
        yield
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)


def traced(
    recorder: Recorder,
    name: str,
    func: Callable,
    after: Callable[[Recorder, tuple, dict, object], None] | None = None,
) -> Callable:
    """A wrapper of func that records a span called name around each call.

    after(recorder, args, kwargs, result), when given, runs inside the span
    once the call has returned, to update counters from the call's result.
    """

    def run(*args, **kwargs):
        result = func(*args, **kwargs)
        if after is not None:
            after(recorder, args, kwargs, result)
        return result

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        return recorder.call(name, run, *args, **kwargs)

    return wrapper


def counted(recorder: Recorder, name: str, func: Callable) -> Callable:
    """A wrapper of func that only counts calls under name (no span)."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        recorder.counts[name] += 1
        return func(*args, **kwargs)

    return wrapper
