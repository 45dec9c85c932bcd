"""Machine speed, measured next to the work it rescales.

On a shared 2-vCPU VM the speed of a fixed Python loop drifts by up to 1.8x
over seconds to minutes, and CPU time drifts with wall time, so neither a
longer run nor process time removes the drift from a run's medians.  A fixed reference kernel, which uses only the
standard library and never the package, is timed between short stretches of
work.  A stretch's wall time is rescaled to what it would have taken on a
machine where the kernel takes `NOMINAL_S`:

    rescaled = wall * NOMINAL_S / median(kernel timings either side)

A change to the package moves its own time and not the kernel's, so it moves
the rescaled time by the same ratio as the wall time.  The kernel and
`NOMINAL_S` fix the scale of every timing metric: change neither, or results
before and after the change cannot be compared.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# A typical wall time of the kernel on a shared 2-vCPU Xeon VM under
# CPython 3.11.7; it sets the scale, not the stability, of the results.
NOMINAL_S = 0.0012
# Operations run for about this long between two kernel timings.
STRETCH_S = 0.05
# Kernel timings on either side that set a stretch's factor; a cold call or
# a fresh import is given this many timings of its own on either side.
WINDOW = 3

_BIG = 3**2000


def kernel() -> int:
    """A fixed mix of what the package spends its time on: bytecode loops over
    small integers, dict and tuple churn, Fraction arithmetic and big-integer
    division."""
    total = 0
    for a in range(2000, 2600):
        x, y = a, a * 7 // 11
        while y:
            x, y = y, x % y
            total += 1
    table = {}
    for i in range(3000):
        table[i & 255] = (i, str(i))
    harmonic = Fraction(0)
    for k in range(1, 60):
        harmonic += Fraction(1, k)
    x, y = _BIG, _BIG // 7 + 12345
    for _ in range(60):
        if not y:
            break
        x, y = y, x % y
    return total + len(table) + harmonic.denominator % 7 + x % 7


def kernel_s() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Gauge:
    """Kernel timings, taken in order between stretches of work."""

    def __init__(self):
        kernel()  # warm-up, not used
        self.timings = [kernel_s()]

    def measure(self, runs: int = 1) -> int:
        """Time the kernel `runs` times; return the index of the first timing."""
        first = len(self.timings)
        self.timings.extend(kernel_s() for _ in range(runs))
        return first

    def factor(self, before: int, after: int) -> float:
        """The factor for wall time spent between timings `before` and `after`.

        It uses the median of WINDOW timings on either side, so that neither
        one disturbed timing nor a long operation between two timings sets it.
        """
        near = (self.timings[max(0, before - WINDOW + 1):before + 1]
                + self.timings[after:after + WINDOW])
        return NOMINAL_S / statistics.median(near)

    def mean_s(self) -> float:
        return statistics.fmean(self.timings)
