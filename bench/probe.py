"""Machine-speed probe, so that timings from a shared machine can be compared.

On a small shared machine the speed of one core drifts by up to 2x over
tens of seconds as neighbours come and go.  On a shared 2-core VM, medians
of 20 consecutive runs of one query ranged from 0.57x to 1.19x of the
overall median within a minute.  A small pure-Python kernel, timed next
to the query, slowed down by nearly the same factor: the medians of query
time over kernel time stayed within 0.95x to 1.02x over the same minute.

So every time the benchmark reports is in reference seconds: the measured
seconds times ``REFERENCE_S / k``, where k is the kernel's median time in
the probe samples around the measurement.  A reference second is a second
of a core on which the kernel takes ``REFERENCE_S``, about the speed of
that VM's core at its fastest.

``Probe`` samples the kernel every ``INTERVAL_S`` from a SIGALRM handler,
which runs between bytecodes of the main thread, so long calls are sampled
all along; the time spent in the handler is counted in ``spent`` and
subtracted from the measurement it interrupts.
"""

import signal
import statistics
from bisect import bisect_left, bisect_right
from math import gcd
from time import perf_counter

REFERENCE_S = 0.0003
INTERVAL_S = 0.1
WINDOW_S = 1.0
MIN_SAMPLES = 5


class _Record:
    __slots__ = ("order", "residue", "pair")

    def __init__(self, order, residue, pair):
        self.order = order
        self.residue = residue
        self.pair = pair


def kernel():
    """Small objects, tuples, gcds, a keyed sort and formatting: the
    operations the program spends its time on."""
    records = []
    for x in range(1, 400):
        records.append(_Record(gcd(x, 105), x * x % 1009, (x % 31, x)))
    records.sort(key=lambda r: (r.order, r.residue))
    return ", ".join("(%d,%d)" % r.pair for r in records[:100])


def kernel_seconds():
    start = perf_counter()
    kernel()
    return perf_counter() - start


class Probe:
    """Kernel timings sampled in the background of the main thread."""

    def __init__(self):
        self.times = []
        self.kernels = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.times.append(end)
        self.kernels.append(end - start)
        self.spent += end - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def sample_now(self):
        """Take one sample outside the timer, e.g. before the first query."""
        self._tick(None, None)

    def factor(self, start, end):
        """REFERENCE_S over the median kernel time near [start, end]."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return REFERENCE_S / statistics.median(self.kernels[lo:hi])
