"""Machine-speed reference for untraced runs.

On a shared machine the speed drifts: on a 2-vCPU shared host one pass of
soe-pipeline took from 3.2 s to 5.5 s within minutes.  So an untraced run
also times a fixed pure-Python reference slice (no ``bratteli`` code) every
``PERIOD`` seconds, from a SIGALRM handler so that long calls are sampled
inside too, and reports every time scaled to the speed at which the slice
takes ``NOMINAL_S``: ``scaled = raw * NOMINAL_S / (slice time nearby)``.
The slice never calls the program, so a change to the program moves the
scaled times as it moves the raw ones; only the machine's drift is divided
out.  The time spent in the slices is left out of every measured interval,
and the raw values are kept in the result file.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD = 0.05
NOMINAL_S = 1.0e-3
NEIGHBOURS = 5


_TUPLES = tuple(tuple(range(j, j + 8)) for j in range(200))
_ROWS = [list(range(60)) for _ in range(16)]


def reference_slice():
    """About a millisecond of the interpreter work the workloads do: an
    integer loop, hashing nested tuples, list comprehensions over zipped
    integer rows, and dict updates."""
    s = 0
    for i in range(5000):
        s += i * i
    for _ in range(3):
        s ^= hash(_TUPLES)
    for k in range(15):
        s += sum(x - y for x, y in zip(_ROWS[k], _ROWS[k + 1]))
    counts = {}
    for i in range(800):
        counts[i & 63] = counts.get(i & 63, 0) + i
    a, b = list(range(100)), list(range(100))
    for _ in range(40):
        a = [x + 7 * y - x // 3 for x, y in zip(a, b)]
    return s + a[-1] + counts[0]


class Speed:
    """Clock that leaves out the reference slices, plus the slice timings."""

    def __init__(self):
        self.stolen = 0.0
        self.at = []         # work-clock time of each slice
        self.took = []       # its duration
        self._factors = []
        self._old = None

    def now(self):
        """Seconds, not counting time spent in reference slices."""
        while True:
            n = len(self.took)
            t = time.perf_counter() - self.stolen
            if n == len(self.took):     # no slice ran in between
                return t

    def tick(self, *_):
        start = time.perf_counter()
        reference_slice()
        took = time.perf_counter() - start
        self.at.append(start - self.stolen)
        self.took.append(took)
        self.stolen += time.perf_counter() - start

    def __enter__(self):
        for _ in range(NEIGHBOURS):
            self.tick()
        self._old = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        for _ in range(NEIGHBOURS):
            self.tick()
        return False

    def _smoothed(self):
        """Per slice, the median slow-down of it and its neighbours."""
        if len(self._factors) != len(self.took):
            half = NEIGHBOURS // 2
            self._factors = [
                statistics.median(self.took[max(0, i - half):i + half + 1])
                / NOMINAL_S for i in range(len(self.took))]
        return self._factors

    def factor(self, t):
        """Slow-down at work-clock time t (from the nearest slices)."""
        f = self._smoothed()
        i = bisect.bisect_left(self.at, t)
        if i == len(self.at) or (i > 0
                                 and t - self.at[i - 1] < self.at[i] - t):
            i -= 1
        return f[i]

    def scaled(self, t0, t1):
        """Length of [t0, t1] at nominal speed: each stretch between two
        slices is divided by the slow-down measured around it.  Called
        once sampling is over, so slices after t1 count too."""
        f = self._smoothed()
        lo = bisect.bisect_right(self.at, t0)
        hi = bisect.bisect_left(self.at, t1)
        if lo >= hi:
            return (t1 - t0) / self.factor((t0 + t1) / 2)
        total = (self.at[lo] - t0) / f[lo] + (t1 - self.at[hi - 1]) / f[hi - 1]
        for i in range(lo, hi - 1):
            total += (self.at[i + 1] - self.at[i]) * 2 / (f[i] + f[i + 1])
        return total


class RawClock:
    """Stand-in for Speed when nothing is scaled (traced runs)."""

    now = staticmethod(time.perf_counter)

    @staticmethod
    def scaled(t0, t1):
        return t1 - t0
