"""Host speed, measured beside the workload, to put its times on one scale.

On the shared host this benchmark was tuned on, all code runs at one of
two speeds about 2x apart, and the host switches between them several
times a minute, sometimes several times a second (README.md).  A raw
time then says as much about the host as about the program.

`HostClock` runs a fixed calibration kernel between the workload's
requests, at least every `every_s` seconds of work.  The work between two
kernel runs is a *stretch*; it is credited at the speed the two runs
measured: `REFERENCE_S / mean(kernel time before, kernel time after)`.
`scaled(t0, t1)` converts a raw interval into reference seconds: the
time it would have taken on a host where the kernel takes `REFERENCE_S`.
Kernel runs are not part of any stretch, so they never count as work.

The kernel is the benchmark's own reference minimax (`reference.py`) on
a path: dict lookups and bitmask arithmetic like the library's solver,
but none of the library's code, so a change to the library cannot move
the scale.
"""

from __future__ import annotations

from bisect import bisect_right
from time import perf_counter

from reference import ReferenceGame

KERNEL_ORDER = 15       # P_15: 5 k memo entries, about 10 to 20 ms
REFERENCE_S = 0.020     # the kernel's time on the reference host


def kernel_seconds():
    """One cold run of the calibration kernel, timed."""
    n = KERNEL_ORDER
    game = ReferenceGame(n, [(v, v + 1) for v in range(n - 1)])
    t0 = perf_counter()
    game.value(0, True)
    return perf_counter() - t0


class HostClock:
    def __init__(self, every_s):
        self.every_s = every_s
        self.kernel_s = []      # one per kernel run, in order
        self.starts = []        # stretch i runs from starts[i] to ends[i]
        self.ends = []
        self.mark()

    def mark(self):
        """Run the kernel now, closing the current stretch."""
        t0 = perf_counter()
        self.kernel_s.append(kernel_seconds())
        t1 = perf_counter()
        if self.starts:
            self.ends.append(t0)
        self.starts.append(t1)

    def tick(self):
        """Run the kernel if the current stretch is `every_s` long.  Call it
        only between requests, so that no request spans two stretches."""
        if perf_counter() - self.starts[-1] >= self.every_s:
            self.mark()

    def speed(self, i):
        return 2 * REFERENCE_S / (self.kernel_s[i] + self.kernel_s[i + 1])

    def scaled(self, t0, t1):
        """Reference seconds of work in the raw interval [t0, t1].  Every
        stretch it overlaps must be closed by `mark` first."""
        return self._work(t0, t1, self.speed)

    def raw(self, t0, t1):
        """Seconds of work in [t0, t1], kernel runs left out, unscaled."""
        return self._work(t0, t1, lambda i: 1.0)

    def _work(self, t0, t1, speed):
        total = 0.0
        i = max(0, bisect_right(self.starts, t0) - 1)
        while i < len(self.ends) and self.starts[i] < t1:
            overlap = min(t1, self.ends[i]) - max(t0, self.starts[i])
            if overlap > 0:
                total += overlap * speed(i)
            i += 1
        return total
