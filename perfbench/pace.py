"""Host-speed sampling: times that do not move with a shared host's load.

The reference host (2 vCPUs of a shared Xeon) changes speed by itself: a
fixed piece of Python code runs up to about twice as long for stretches of
seconds to minutes, whatever the program does.  Raw times of the same code
then spread by a fifth or more from run to run, more than the benchmark's
bounds allow.

While the timed phase runs, a SIGALRM every INTERVAL_S seconds runs a fixed
kernel of exact Fraction arithmetic (the program's own kind of work, about
0.4 ms) in the main thread and records how long it took.  A call that took t
seconds while the kernel took k seconds on average is reported as

    t * REFERENCE_KERNEL_S / k

reference seconds: its time on the reference host running at full speed.  Both t and
k stretch when the host slows, so the ratio stays put; a program that gets
faster or slower still moves t alone.  The kernel costs about 2 % of the
timed phase, the same on every run.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
MIN_SAMPLES = 3
# Time of one kernel() on the reference host (Python 3.11) at full speed.
# Sampled while the benchmark ran, the kernel took about 0.25 ms in the
# host's fast spells and 0.42 ms in its slow ones.  The constant only sets
# the scale: a reference second is a second at that speed.
REFERENCE_KERNEL_S = 0.25e-3

_RATIO = Fraction(3, 7)


def kernel() -> dict:
    """A fixed piece of exact arithmetic: Fraction products and sums with
    growing denominators, kept in a small dict."""
    acc: dict = {}
    x = Fraction(1)
    for i in range(1, 40):
        x = x * _RATIO + Fraction(i, 3 + i % 5)
        acc[i % 7] = acc.get(i % 7, 0) + x
    return acc


class PaceSampler:
    """Context manager that samples the kernel's time on a timer.

    Only one sampler can run at a time (it owns SIGALRM), and only in the
    main thread.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list = []
        self.seconds: list = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)

    def __enter__(self) -> "PaceSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_seconds(self, start: float, end: float) -> float:
        """Mean kernel time over the samples taken in [start, end]; a span
        with fewer than MIN_SAMPLES is widened by one sample on each side
        until it has them."""
        if not self.seconds:         # a span shorter than the first tick
            self._sample(None, None)
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        while hi - lo < min(MIN_SAMPLES, len(self.seconds)):
            lo, hi = max(0, lo - 1), min(len(self.seconds), hi + 1)
        window = self.seconds[lo:hi]
        return sum(window) / len(window)

    def reference_seconds(self, start: float, seconds: float) -> float:
        """A call's time in reference seconds."""
        return seconds * REFERENCE_KERNEL_S / self.kernel_seconds(
            start, start + seconds)
