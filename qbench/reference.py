"""A fixed pure-Python kernel that measures how fast the machine runs now.

On a shared machine the speed of the same Python code drifts by up to 2x
over tens of seconds, and run-to-run averages by 20%.  The timed loops
sample this kernel every half second.  A run's operation times are
multiplied by NOMINAL_S / (the median kernel time of the run), which
states them at the speed the machine had when NOMINAL_S was measured,
and a run stops after --seconds of such time, so it does the same work
however fast the machine happens to be.  The kernel uses only the
standard library (Fraction arithmetic and an integer convolution, the
two kinds of work the library does), so a change to the library cannot
change it.
"""

import statistics
import time
from fractions import Fraction

# median kernel time on the 2-core machine the benchmark was written on
NOMINAL_S = 0.027
EVERY_S = 0.5       # sampling period


def kernel():
    acc = Fraction(0)
    for i in range(1, 1600):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    a, b = list(range(1, 40)), list(range(3, 50))
    for _ in range(48):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
    return acc, out


class Speed:
    """Kernel samples taken during a timed loop, and the scaling they give."""

    def __init__(self):
        self.stamps = []
        self.times = []
        self.sample()

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.stamps.append(t1)
        self.times.append(t1 - t0)

    def tick(self):
        """Take a sample when the last one is EVERY_S old."""
        if time.perf_counter() - self.stamps[-1] >= EVERY_S:
            self.sample()

    def factor(self):
        """NOMINAL_S over the median of the run's samples so far."""
        return NOMINAL_S / statistics.median(self.times)
