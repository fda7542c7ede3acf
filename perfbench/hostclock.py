"""Samples how fast the host runs while a pass runs.

The benchmark's host is a small virtual machine on a shared machine.  The
speed it gives a process drifts by a quarter or more over seconds to minutes,
and the same pass, timed back to back, varied about as much.  A fixed
pure-Python computation, sampled all through a pass, tracks that drift,
so dividing a pass's wall time by the mean sample cancels most of it: over
eight back-to-back passes of ``verify-chordal`` the spread of the middle half
fell from 30% of the median to 3%.  ``NOMINAL_S`` turns the quotient back
into seconds: a normalized time is what the pass would have taken on a host
where one sample takes ``NOMINAL_S``.  The computation is fixed here, outside
the package, so no change to the package moves it.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from contextlib import contextmanager

# A fixed Gaussian elimination over GF(2) on 64 rows of 64 bits, as Python
# ints and a pivot dict.  Over passes of the verify workloads it tracked the
# pass time closely (correlation 0.91 to 0.99), better than a loop of small
# integer arithmetic (0.81 to 0.99) or dict lookups over a few megabytes.
SAMPLE_ROWS = tuple(random.Random(3).getrandbits(64) for _ in range(64))
SAMPLE_REPEATS = 300
# One sample's time on a typical reading of the 2-vCPU host the benchmark was
# written on; only a unit, so it never changes.
NOMINAL_S = 0.0022
INTERVAL_S = 0.1


def reference_loop(repeats: int = SAMPLE_REPEATS) -> float:
    """Seconds taken by a fixed pure-Python computation on this host now."""
    t0 = time.perf_counter()
    pivots: dict[int, int] = {}
    for _ in range(repeats):
        pivots.clear()
        for row in SAMPLE_ROWS:
            while row:
                top = row.bit_length() - 1
                if top not in pivots:
                    pivots[top] = row
                    break
                row ^= pivots[top]
    return time.perf_counter() - t0


class HostClock:
    """Reference-loop samples taken during a pass, and the time they took,
    which the pass's timer leaves out."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # a collection of the pass's objects is not host speed
        try:
            self.samples.append(reference_loop())
        finally:
            if collecting:
                gc.enable()
        self.spent += time.perf_counter() - t0

    def begin(self) -> None:
        """Take a sample, then start timing a pass."""
        self.sample()
        self._t0, self._spent0 = time.perf_counter(), self.spent

    def end(self) -> float:
        """Stop timing, take a sample, and return the pass's seconds without
        the samples taken during it."""
        seconds = time.perf_counter() - self._t0 - (self.spent - self._spent0)
        self.sample()
        return seconds

    @contextmanager
    def sampling_timer(self):
        """Sample every ``interval`` from a SIGALRM handler, so the samples
        spread evenly over the operations however long each one is.  The
        handler runs on the main thread; a sample is shorter than the
        interpreter's GIL switch interval (5 ms), so worker threads seldom
        cut into it."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def normalize(self, seconds: float) -> float:
        """``seconds`` as they would read on a host of nominal speed."""
        return seconds * NOMINAL_S / statistics.fmean(self.samples)
