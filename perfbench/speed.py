"""CPU-speed probe: times that hold still on a host whose CPU speed does not.

On a shared host the same pure-Python work can take half as long again
while neighbours load the core, in bursts from a fraction of a second to
minutes, so whole runs land in slow stretches and medians within a run do not
help.  While a ``SpeedProbe`` is active, a timer signal interrupts the
program every ``PERIOD`` seconds and times ``kernel``, a fixed loop of the
benchmark's own code.  ``adjusted(start, end)`` is then the interval's
duration in reference seconds: each stretch of the interval is scaled by
``REFERENCE`` over the kernel time sampled there, and the probe's own time is
removed.  A change to the package cannot move the kernel, so a slower
package still shows as a longer adjusted time.
"""
from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

PERIOD = 0.05
REFERENCE = 0.0003  # kernel seconds at the reference speed


def _holds(t: list, n: int) -> bool:
    return all(t[t[a * n + b] * n + c] == t[t[c * n + b] * n + a]
               for a in range(n) for b in range(n) for c in range(n))


def _tables(t: list, pos: int, n: int):
    """Every n-by-n table filling ``t`` from ``pos`` on that passes ``_holds``."""
    if pos == len(t):
        if _holds(t, n):
            yield tuple(t)
        return
    for v in range(n):
        t[pos] = v
        yield from _tables(t, pos + 1, n)
    t[pos] = 0


def kernel() -> int:
    """A few tenths of a millisecond of work shaped like the package's: a small
    backtracking search through generators and calls, then text formatting.
    Of the loops tried, this one's time tracked the package's most closely."""
    n = 0
    for _ in range(8):
        found = list(_tables([0] * 4, 0, 2))
        text = " ".join(str(v) for table in found for v in table)
        n += len(found) + len(text)
    return n


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []   # when each kernel sample began
        self.costs: list[float] = []    # how long it took
        self._previous = None

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's garbage is not kernel time
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.costs.append(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, exc_type, exc, tb):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if exc_type is None:
            self.index()

    def index(self) -> None:
        """Build the table of stretches from the samples taken."""
        if not self.costs:
            raise RuntimeError("the speed probe took no samples")
        # stretch k runs from the midpoint before sample k to the midpoint after it,
        # at the speed of the median of samples k-2 to k+2
        s, c = self.starts, self.costs
        self.bounds = [(a + b) / 2 for a, b in zip(s, s[1:])]
        self.scale = [REFERENCE / statistics.median(c[max(0, k - 2): k + 3])
                      for k in range(len(c))]

    def adjusted(self, start: float, end: float) -> float:
        """Duration of [start, end] in reference seconds, without probe time."""
        total = 0.0
        k = bisect_right(self.bounds, start)
        lo = start
        while True:
            hi = min(end, self.bounds[k]) if k < len(self.bounds) else end
            total += (hi - lo) * self.scale[k]
            if hi >= end:
                break
            lo, k = hi, k + 1
        for j in range(bisect_left(self.starts, start), bisect_left(self.starts, end)):
            total -= self.costs[j] * self.scale[j]
        return max(total, 0.0)

    def speed(self) -> float:
        """Median kernel time over the reference: 1.0 at reference speed, 1.5 when slower."""
        return statistics.median(self.costs) / REFERENCE
