"""Host speed, read from a fixed reference kernel.

The host's CPU speed changes by up to 2x, over anything from a fraction of a
second to minutes, as other tenants load the machine.  It slows the kernel
below and reeslab alike.  The benchmark therefore reports every time scaled
to a reference speed: the time as measured, divided by the kernel's time
measured at the same moment, times CAL_REF_S.  A run that falls into a slow
period then reads the same as one that does not.  The kernel lives in the
benchmark's own files, so no change to reeslab moves it.

``SpeedSampler`` reads the speed every SAMPLE_EVERY_S from a timer signal,
also while a long op runs.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction as F

# The kernel's time at the reference speed (an Intel Xeon vCPU, CPython 3.11,
# in its fast state); it only sets the scale that scaled times are given in.
CAL_REF_S = 0.00012
SAMPLE_EVERY_S = 0.01
# Readings taken this long before an op starts or after it ends still count
# for it, so that an op shorter than SAMPLE_EVERY_S has a few of them.
SAMPLE_MARGIN_S = 2 * SAMPLE_EVERY_S


def _reference_kernel() -> int:
    """A fixed piece of pure-Python work of the kind reeslab does: Fraction
    arithmetic on small and growing integers, and dict updates."""
    acc, table = F(0), {}
    for i in range(1, 64):
        acc += F(i % 7 + 1, i % 11 + 2)
        key = i & 15
        table[key] = (table.get(key, 1) * (i | 1)) % 1000003
    return acc.denominator + len(table)


def _reading() -> float:
    start = time.perf_counter()
    _reference_kernel()
    return time.perf_counter() - start


def scaled(seconds: float, speed: float) -> float:
    """A time measured while the kernel took ``speed``, at the reference speed."""
    return seconds * CAL_REF_S / speed


class SpeedSampler:
    """Reads the kernel's time every SAMPLE_EVERY_S from a SIGALRM handler.

    The handler runs between bytecodes of whatever the main thread is doing,
    so a long op is sampled while it runs.  ``spent`` is the handler's total
    time; a caller subtracts its growth over an op from the op's time.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, _signum, _frame):
        # The first run only warms the caches that the interrupted op
        # evicted; a cold reading swings more than reeslab does.
        start = time.perf_counter()
        _reference_kernel()
        took = _reading()
        self.at.append(start)
        self.took.append(took)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._handler(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._handler(None, None)
        return False

    def speed(self, start: float, end: float) -> float:
        """Median kernel time over the readings taken around [start, end]."""
        lo = bisect.bisect_left(self.at, start - SAMPLE_MARGIN_S)
        hi = bisect.bisect_right(self.at, end + SAMPLE_MARGIN_S)
        if hi - lo < 3:   # too few near: take the closest three
            lo = max(0, min(lo, len(self.at) - 3))
            hi = min(lo + 3, len(self.at))
        return statistics.median(self.took[lo:hi])
