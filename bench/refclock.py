"""Wall time converted to reference seconds.

The machine the benchmark was defined on (2-core Xeon under KVM,
CPython 3.11.7) is shared: a fixed pure-Python loop there ran anywhere
from 6 to 15 ms, in phases from under a second to tens of seconds, and
CPU time tracked wall time exactly, so the hardware itself slows down.
The quartile spread of one workload's pass time between runs reached
35%.

While a Clock runs, an interval timer interrupts the process every
SEGMENT_S seconds and the handler times one call of a fixed reference
loop, cutting the run into segments.  A segment counts as its wall time
scaled by REF_NOMINAL_S over the mean reference time at its two ends,
so a slower phase of the machine mostly cancels while a faster program
shows in full.  The reference calls fall between segments and are never
counted.  The handler runs between bytecodes of whatever the library is
doing, so even one long call is cut into short segments.
"""
from __future__ import annotations

import bisect
import gc
import signal
import time
from itertools import islice

# the unit: a round value near the median time of one _reference() call
# on the machine above (8 ms); changing it rescales every reported time
REF_NOMINAL_S = 0.010
SEGMENT_S = 0.15

_IDENTITY = bytes(range(256))
_TABLE = {(i % 97, i % 89): i for i in range(2_000)}
_WORD = bytes(range(8))


def _reference() -> int:
    """Fixed work in the idiom of the library (small tuples, dict
    lookups, bytes.translate) that keeps nothing alive, so its time
    follows the machine and not the state of the workload's heap."""
    acc = 0
    for i in range(30_000):
        acc += _TABLE.get((i % 97, i % 89), 1)
        acc ^= len(_WORD.translate(_IDENTITY))
    return acc


def reference_s() -> float:
    """Time of one _reference() call, with the collector off, since a
    full collection walks the workload's live heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """A context manager; segments are cut while it is entered."""

    def __init__(self) -> None:
        self.segments: list[tuple[float, float, float]] = []  # (start, end, scale)
        self._ends: list[float] = []
        self._ref = 0.0
        self._start = 0.0
        self._previous = None
        self._cutting = False

    def __enter__(self) -> "Clock":
        self._ref = reference_s()
        self._start = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S, SEGMENT_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.cut()

    def _on_timer(self, signum, frame) -> None:
        if not self._cutting:
            self.cut()

    def cut(self) -> None:
        """End the current segment now."""
        self._cutting = True
        try:
            now = time.perf_counter()
            ref = reference_s()
            self.segments.append((self._start, now, REF_NOMINAL_S / ((self._ref + ref) / 2)))
            self._ends.append(now)
            self._ref = ref
            self._start = time.perf_counter()
        finally:
            self._cutting = False

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds between two perf_counter readings taken
        before the last cut."""
        total = 0.0
        for s, e, scale in islice(self.segments, bisect.bisect_right(self._ends, start), None):
            if s >= end:
                break
            total += (min(e, end) - max(s, start)) * scale
        return total

    def scale_range(self) -> tuple[float, float]:
        scales = [scale for _, _, scale in self.segments]
        return min(scales), max(scales)
