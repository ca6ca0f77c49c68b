"""Put op times measured at different machine speeds on one scale.

On the 2-core machine this benchmark was written on (Xeon at 2.1 GHz,
Python 3.11.7), the same code runs up to twice as slow for stretches of 2 to
60 seconds, because of load outside the machine's control.  Raw times of two
30-second runs then differ by more than any change worth measuring: over six
runs, the spread between quartiles of ops_per_s was 23% on engine-scale.

``SpeedClock`` reads the speed all through a run: a SIGALRM handler times a
fixed probe every PROBE_PERIOD_S, also in the middle of a long op.  A
reading's speed is REF_PROBE_S over the probe's time.  An op's time, less
the time the handler took during it, is multiplied by the mean speed read
during the op, or either side of it for a short op.  A scaled time is what
the op would take at the speed at which the probe takes REF_PROBE_S, which
is this machine's fast phase.

The probe mixes small Fraction additions with products of big integers,
because the slow phase slows the two unequally: interpreted small-number
code by about 1.45x, big-integer products by about 1.27x.  A probe of
Fraction additions alone over-corrected the tall-entry ops of desk-mix
(their tail spread by 15% between quartiles over ten runs); the mix brings
every spread seen under 8%, from 13-45% unscaled.

The scaling cancels what slows the probe and the program alike.  The probe
uses only the standard library, so a change to segreml's code does not move
it; a change to state the whole interpreter shares, such as the garbage
collector's thresholds, would move both and partly cancel.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left
from fractions import Fraction

PROBE_PERIOD_S = 0.1
PROBE_LOOPS = 400
PROBE_BIG = 30
REF_PROBE_S = 0.0017  # the probe's time on the machine above in its fast phase


def fraction_loop(iterations: int) -> float:
    """Seconds taken by a fixed loop of Fraction additions."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, iterations):
        acc += Fraction(i % 97 + 1, i % 89 + 2)
        if acc.denominator > 10**30:
            acc = Fraction(acc.numerator % 1000 + 1, 7)
    return time.perf_counter() - t0


_BIG = 3**2000


def probe() -> float:
    """Seconds for PROBE_LOOPS Fraction additions plus PROBE_BIG products of ~3200-bit integers."""
    t0 = time.perf_counter()
    fraction_loop(PROBE_LOOPS)
    for i in range(PROBE_BIG):
        (_BIG * (_BIG + i)) % (_BIG - 7)
    return time.perf_counter() - t0


def speed_now(readings: int = 10) -> float:
    """Reference-speed seconds per second here and now: REF_PROBE_S over the median reading."""
    return REF_PROBE_S / statistics.median(probe() for _ in range(readings))


class SpeedClock:
    """Reads the machine's speed every PROBE_PERIOD_S while active (main thread only)."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.costs: list[float] = []

    def _read(self, signum=None, frame=None) -> None:
        self.starts.append(time.perf_counter())
        self.costs.append(probe())

    def __enter__(self) -> SpeedClock:
        self._read()
        self._previous = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._read()

    def scaled(self, start: float, end: float) -> float:
        """The time from start to end, less the readings in it, at reference speed."""
        a, b = bisect_left(self.starts, start), bisect_left(self.starts, end)
        inside = self.costs[a:b]
        around = inside or self.costs[max(a - 1, 0) : a + 1]
        return (end - start - sum(inside)) * statistics.fmean(REF_PROBE_S / cost for cost in around)

    def summary(self) -> dict:
        return {
            "readings": len(self.costs),
            "probe_s_min": min(self.costs),
            "probe_s_median": statistics.median(self.costs),
            "probe_s_max": max(self.costs),
        }
