"""Timings normalized by a reference workload sampled while they run.

The machines this benchmark runs on share their cores with other tenants,
and their speed drifts by a third or more within seconds and by up to 2x
between runs, which no run length averages away.  So while operations run,
a timer signal interrupts them every ``SAMPLE_EVERY_S`` to time a fixed
reference loop (exact rational arithmetic, hashing and dict updates, the
operations sl2wt spends its time in).  An operation's time, net of the
samples taken inside it, is reported as ``net * NOMINAL_S / reference``,
where ``reference`` is the mean of the samples taken during and next to it:
the time it would take on a machine where the reference loop takes
``NOMINAL_S``.  Raw wall times are kept alongside in the run's provenance.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction
from typing import List, Tuple

#: The reference loop's time at which normalized times equal wall times.
NOMINAL_S = 0.0012
#: Interval of the timer that takes reference samples.
SAMPLE_EVERY_S = 0.05


def reference() -> float:
    """Wall time of one pass of the fixed reference loop (about 1 ms)."""
    start = time.perf_counter()
    counts = {}
    for i in range(1, 150):
        q = (Fraction(i, 7) + Fraction(3, i % 11 + 1)) * Fraction(i % 5 + 1, 3)
        key = (q.numerator % 13, q.denominator % 7)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


class SpeedLog:
    """Reference samples taken on a timer while the log is entered.

    Inside ``with log:``, SIGALRM takes a sample every SAMPLE_EVERY_S; the
    interrupted code resumes afterwards.  :meth:`normalize` then turns an
    interval measured inside the block into a normalized duration.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.seconds: List[float] = []
        self._busy = False

    def _sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        seconds = reference()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.seconds.append(seconds)
        self._busy = False

    def __enter__(self) -> "SpeedLog":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def normalize(self, start: float, end: float) -> Tuple[float, float]:
        """(normalized, raw) duration of the interval [start, end], both net
        of the samples taken inside it; the scale comes from the samples
        that overlap the interval widened by one sampling period."""
        first = bisect.bisect_left(self.ends, start - SAMPLE_EVERY_S)
        last = bisect.bisect_right(self.starts, end + SAMPLE_EVERY_S)
        inside = sum(
            self.ends[i] - self.starts[i]
            for i in range(first, last)
            if start <= self.starts[i] and self.ends[i] <= end
        )
        raw = end - start - inside
        # a sample delayed past the widened interval leaves it empty: use the nearest
        near = self.seconds[first:last] or self.seconds[max(first - 1, 0):first + 1]
        return raw * NOMINAL_S / statistics.fmean(near), raw


def timed(func, *args) -> Tuple[object, float, float]:
    """(result, normalized seconds, raw seconds) of a call that waits for
    another process, scaled by reference runs just before and after it."""
    before = statistics.fmean(reference() for _ in range(3))
    start = time.perf_counter()
    result = func(*args)
    seconds = time.perf_counter() - start
    after = statistics.fmean(reference() for _ in range(3))
    return result, seconds * NOMINAL_S / ((before + after) / 2), seconds
