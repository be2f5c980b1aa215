"""Host speed, measured by a fixed reference slice timed between ops.

On a shared host the speed of the CPU changes by a third or more within
seconds, as other tenants load the machine; a run's times then say as much
about the neighbours as about the program.  The runner therefore times a
fixed slice of pure-Python ``Fraction`` arithmetic (benchmark code, no
library call) between ops, at least every ``EVERY_S`` seconds, and reports
times scaled to a host on which one slice takes ``NOMINAL_S``:

    reported = measured * NOMINAL_S / (median slice time around the interval)

The slices run outside the timed op calls, so a change to the library never
changes the slice; the raw times are kept in the provenance line.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

EVERY_S = 0.1  # a slice at least this often, taken between two ops
NOMINAL_S = 0.001  # reported times assume a host on which one slice takes this long
WINDOW_S = 0.1  # slices within this distance of an interval give its speed
MARK = 3  # slices taken at each boundary between stages of set-up


def reference_slice() -> float:
    """Time one fixed slice of rational arithmetic."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 220):
        acc += Fraction(1, i % 97 + 1)
    return perf_counter() - t0


class Clock:
    """Reference slices taken during a run, and the scaling they give."""

    def __init__(self):
        self.t: list[float] = []  # end time of each slice
        self.d: list[float] = []  # its duration

    def probe(self):
        self.d.append(reference_slice())
        self.t.append(perf_counter())

    def mark(self):
        """A few slices in a row, at a boundary between stages of set-up."""
        for _ in range(MARK):
            self.probe()

    def probe_if_due(self):
        if not self.t or perf_counter() - self.t[-1] >= EVERY_S:
            self.probe()

    def local(self, t0: float, t1: float) -> float:
        """Median slice time within WINDOW_S of [t0, t1] (the nearest if none)."""
        lo = bisect_left(self.t, t0 - WINDOW_S)
        hi = bisect_right(self.t, t1 + WINDOW_S)
        if lo == hi:  # the slices just before and just after the window
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.t))
        return statistics.median(self.d[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """Factor turning a time measured over [t0, t1] into nominal-host time."""
        return NOMINAL_S / self.local(t0, t1)

    def scaled_span(self, t0: float, t1: float) -> float:
        """Nominal-host length of [t0, t1], summed over pieces of EVERY_S."""
        total, a = 0.0, t0
        while a < t1:
            b = min(a + EVERY_S, t1)
            total += (b - a) * self.scale(a, b)
            a = b
        return total
