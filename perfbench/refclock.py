"""Operation times scaled to a fixed host speed.

The benchmark runs on a shared host whose speed moves by up to 1.5-2x
in phases of a second to minutes. Process CPU time moves with it, so
the slowdown is not time stolen from the process; a plain Python loop
slows down just as much. Such a phase can last a whole run, so no
statistic over one run's own times repeats across runs.

So the worker measures the host's speed while it works. A timer signal
runs ``burst`` (a fixed piece of pure-Python and small-numpy work, like
the package's own) every ``PERIOD_S``. An operation's time, less the
bursts that ran inside it, is scaled by ``NOMINAL_BURST_S`` over the mean
burst time during the operation (and just before it, so that at least
``WINDOW`` bursts are used). The result is the operation's time at the
host speed where a burst takes ``NOMINAL_BURST_S``. A change to the
package moves the operation's time and not the bursts, so it moves the
scaled time by its full factor.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from time import perf_counter

import numpy as np

# A burst of 1.1-1.7 ms every 50 ms costs the worker 2-4% of its time.
# Shorter bursts run cache-cold after each interruption and no longer
# follow the host's speed.
PERIOD_S = 0.05
# Burst time on a quiet 2-vCPU Intel Xeon host (Python 3.11, numpy 2.4).
NOMINAL_BURST_S = 1.1e-3
WINDOW = 10

_VEC = np.arange(64, dtype=complex)


def burst() -> int:
    total = 0
    for i in range(6000):
        total += i * i % 7
    vec = _VEC
    for _ in range(200):
        vec = (vec * 0.5 + 1.0).reshape(8, 8).T.ravel()
    return total


def scale(seconds: float, bursts: int = 20) -> float:
    """``seconds`` just measured, scaled by bursts run now, one after another."""
    took = []
    for _ in range(bursts):
        start = perf_counter()
        burst()
        took.append(perf_counter() - start)
    return seconds * NOMINAL_BURST_S / statistics.fmean(took)


class RefClock:
    """Times code in scaled seconds while the timer signal samples speed.

    The signal handler runs between bytecodes of the main thread, so a
    burst lies wholly before or wholly after each clock read: the bursts
    inside an interval are those that ended inside it.
    """

    def __init__(self):
        self.bursts: list[float] = []
        self.ends: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        start = perf_counter()
        burst()
        end = perf_counter()
        self.bursts.append(end - start)
        self.ends.append(end)

    def start(self) -> None:
        for _ in range(WINDOW):
            self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def since(self, start: float) -> tuple[float, float]:
        """(measured, scaled) seconds since the clock read ``start``, less bursts."""
        now = perf_counter()
        first = bisect.bisect_right(self.ends, start)
        last = bisect.bisect_right(self.ends, now)
        measured = now - start - math.fsum(self.bursts[first:last])
        used = self.bursts[min(first, last - WINDOW):last]
        return measured, measured * NOMINAL_BURST_S / statistics.fmean(used)
