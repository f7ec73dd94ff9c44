"""Machine-speed calibration for the benchmark's times.

The cores this benchmark runs on are shared: the same Python code runs up
to 1.8 times slower while a neighbour is busy, in phases that last from
seconds to minutes.  A run therefore samples a fixed kernel between its
jobs: fraction-free Gaussian elimination on a fixed 26 x 26 integer
matrix, the pure-Python big-integer arithmetic that hmjoin's exact
pipeline spends its time in.  It never touches hmjoin, so no change to the
program moves it.  Right after each job the kernel runs for about 5% of
that job's time (at least once), and the job's time is calibrated by that
burst: ``seconds * REFERENCE_S / burst_mean``, the time the job would take
on a core that runs one kernel in ``REFERENCE_S``.  Times summed over a
whole run (span totals) use the run's mean kernel time instead.
"""

import random
import time

# A fixed scale near one kernel's time on the machine the bounds were set
# on (Intel Xeon, 2 vCPUs, Python 3.11.7), so calibrated times stay close
# to seconds there.
REFERENCE_S = 0.0015

_rng = random.Random(26)
_MATRIX = [[_rng.randint(-99, 99) for _ in range(26)] for _ in range(26)]


def kernel():
    """Bareiss elimination; returns the determinant of the fixed matrix."""
    a = [row[:] for row in _MATRIX]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            f = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - f * row_k[j]) // prev
        prev = pivot
    return a[n - 1][n - 1]


class Calibration:
    """Kernel bursts taken between the jobs of one run."""

    def __init__(self):
        self.total = 0.0
        self.count = 0

    def calibrated(self, seconds):
        """``seconds`` scaled by a burst of kernel runs taken right after:
        the kernel runs until it has used 5% of ``seconds``, at least once."""
        spent = 0.0
        runs = 0
        while runs == 0 or spent < 0.05 * seconds:
            t0 = time.perf_counter()
            kernel()
            spent += time.perf_counter() - t0
            runs += 1
        self.total += spent
        self.count += runs
        return seconds * REFERENCE_S * runs / spent

    @property
    def kernel_s(self):
        return self.total / self.count

    def scale(self, seconds):
        """``seconds`` scaled by the mean kernel time of every burst so far."""
        return seconds * REFERENCE_S / self.kernel_s
