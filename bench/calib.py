"""
Host-speed calibration: converts wall time into reference-speed seconds.

On a shared host the speed of a core changes by up to 2x for seconds to
minutes at a time, as other tenants come and go.  A wall time then measures
the neighbours as much as the program.  `SpeedClock` runs a fixed kernel
every `PERIOD_S` seconds of wall time, from a SIGALRM handler in the same
thread as the program, so the kernel and the program share the core's speed
at each moment.  A stretch of program time between two kernel runs counts as
its wall time times `REFERENCE_S / kernel time` there: wall seconds at the
speed the kernel has on a quiet host.  The kernel's own time is excluded.

The kernel mixes what widthk spends its time on (interpreted loops over
permutation tuples, dict updates, big-integer products), because the
slowdown is not quite the same for each: their time ratios move by about
10% while the absolute times move by 80%.
"""
from __future__ import annotations

import bisect
import itertools
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.1
# Kernel runs whose median gives the speed at one moment.
WINDOW = 5
# The kernel's time on a quiet 2-vCPU Intel Xeon VM (Python 3.11), so that
# reference seconds read close to wall seconds there.
REFERENCE_S = 0.0005

_PERMS = tuple(itertools.permutations(range(6)))
_BIG_A = 3 ** 2500 + 17
_BIG_B = 7 ** 2200 + 5


def kernel() -> int:
    """A fixed piece of work of about a millisecond."""
    counts: dict[int, int] = {}
    for p in _PERMS:
        d = 0
        for i in range(5):
            if p[i] > p[i + 1]:
                d += i + 1
        counts[d] = counts.get(d, 0) + 1
    x = _BIG_A
    for _ in range(3):
        x = (x * _BIG_B) >> 7000
    return len(counts) + (x & 1)


class SpeedClock:
    """Samples the kernel alongside the program while it is active."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._factors: list[float] | None = None
        self._previous = None

    def sample(self, *_args) -> None:
        t0 = perf_counter()
        kernel()
        self.starts.append(t0)
        self.ends.append(perf_counter())
        self._factors = None

    def __enter__(self) -> "SpeedClock":
        # A full window at each end, so a short span has a speed of its own.
        for _ in range(WINDOW // 2 + 1):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(WINDOW // 2 + 1):
            self.sample()

    def factors(self) -> list[float]:
        """For each gap between kernel runs i and i+1, reference s per wall s."""
        if self._factors is None:
            times = [end - start for start, end in zip(self.starts, self.ends)]
            half = WINDOW // 2
            smooth = [
                statistics.median(times[max(0, i - half):i + half + 1])
                for i in range(len(times))
            ]
            self._factors = [
                2 * REFERENCE_S / (smooth[i] + smooth[i + 1])
                for i in range(len(times) - 1)
            ]
        return self._factors

    def reference_s(self, start: float, end: float) -> float:
        """Program time in [start, end], in reference seconds."""
        factors = self.factors()
        total = 0.0
        i = max(0, bisect.bisect_right(self.ends, start) - 1)
        while i < len(factors) and self.ends[i] < end:
            gap_start = max(self.ends[i], start)
            gap_end = min(self.starts[i + 1], end)
            if gap_end > gap_start:
                total += (gap_end - gap_start) * factors[i]
            i += 1
        return total

    def kernel_s(self, start: float, end: float) -> float:
        """Wall time the kernel took inside [start, end]."""
        return sum(
            max(0.0, min(e, end) - max(s, start))
            for s, e in zip(self.starts, self.ends)
            if s < end and e > start
        )
