"""Machine-speed calibration.

The shared machines this benchmark runs on change speed by 20% or more within
seconds, because other tenants contend for the cores and caches.  So while a
pass runs, an interval timer interrupts it every INTERVAL_S for a short
calibration slice: a fixed piece of pure-Python work of the same kind as
hyperkit's (building and comparing tuples of bit masks, see canon.py).  An
op's time is its duration less the slices inside it, scaled by NOMINAL_S over
the mean duration of the slices inside it and just around it; that expresses
it in seconds at the speed the calibration was pinned to.  A change to
hyperkit moves the op time and leaves the slices alone, so it shows in full.
The collector is off during a slice, so a larger hyperkit heap cannot slow
the slices down and make hyperkit look faster.
"""
from __future__ import annotations

import gc
import random
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

import canon

_rng = random.Random(20230418)
_TABLES = [
    tuple(tuple(_rng.randrange(32) for _ in range(5)) for _ in range(5)) for _ in range(20)
]
# Duration of one slice at the reference speed: the median slice time on a
# 2-core x86-64 sandbox with Python 3.11.7.
NOMINAL_S = 0.0063
INTERVAL_S = 0.1
WARMUP_SLICES = 3


def slice_s() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        canon._relabellings.cache_clear()
        start = perf_counter()
        for table in _TABLES:
            canon.canonical_form(table)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Calibration samples of one pass, and the scaling of op times by them."""

    def __init__(self) -> None:
        self.at: list[float] = []  # sample start times
        self.took: list[float] = []
        self.sliced = 0.0  # seconds spent in slices so far
        self.warmup_s = 0.0
        self._busy = False

    def calibrate(self, *_signal) -> None:
        if self._busy:  # the timer fired again during a slice
            return
        self._busy = True
        self.at.append(perf_counter())
        self.took.append(slice_s())
        self.sliced += self.took[-1]
        self._busy = False

    def net(self) -> float:
        """A perf_counter reading that stands still during slices."""
        return perf_counter() - self.sliced

    def start(self) -> None:
        # The first runs of a slice in a fresh interpreter are slow (cold
        # caches, bytecode not yet specialised), so they are not samples.
        start = perf_counter()
        for _ in range(WARMUP_SLICES):
            slice_s()
        self.warmup_s = perf_counter() - start
        signal.signal(signal.SIGALRM, self.calibrate)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(seconds at the reference speed, raw seconds less the slices) of
        the interval [start, end].  Needs a sample after end."""
        lo, hi = bisect_left(self.at, start), bisect_right(self.at, end)
        inside = self.took[lo:hi]
        net = end - start - sum(inside)
        around = inside + self.took[max(lo - 1, 0):lo] + self.took[hi:hi + 1]
        return net * NOMINAL_S / (sum(around) / len(around)), net
