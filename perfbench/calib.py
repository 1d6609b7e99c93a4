"""Host-speed calibration for the benchmark's timings.

The host this benchmark runs on is shared, and its speed drifts: the same
pure-Python loop took anywhere from 23 to 70 ms within two minutes, and
ten-second medians moved by up to 1.9x.  Every time the benchmark reports
is therefore scaled to a reference host speed.  While a pass runs, a timer
signal interrupts it every PERIOD_S and times `kernel()`, a fixed
pure-Python loop over the kinds of objects toricwonder works on: small int
tuples, dicts and `Fraction`s, as in the lattice and poset code, and
complex exponentials, as in the chart sweeps.  Either half alone tracked
some stages of the package closely and over- or under-corrected others
when the host's speed changed; the two together tracked all of them
best.  A timed unit of work is scaled by REFERENCE_S / (the median kernel
time sampled while it ran, widened by WINDOW_S on either side), and the
time spent in the samples is taken out of it.  A host that runs the
kernel in REFERENCE_S reports raw wall time unchanged.

The kernel does not call toricwonder, so no change to the package moves
it; a change that makes the package faster or slower moves the scaled
time by the same share as the raw time on a steady host.
"""

from __future__ import annotations

import cmath
import gc
import math
import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction

REFERENCE_S = 0.001  # the kernel's time on the reference host
KERNEL_STEPS = 135
PERIOD_S = 0.05  # one kernel sample per this much wall time
WINDOW_S = 0.25  # samples this close to a unit of work count for it
CALIBRATE_RUNS = 9

clock = time.perf_counter


def kernel():
    counts: dict = {}
    total = Fraction(0)
    z = 0j
    for i in range(1, KERNEL_STEPS):
        v = tuple((i * j) % 97 for j in range(6))
        counts[v] = counts.get(v, 0) + 1
        total += Fraction(i % 7, i % 11 + 1)
        for k in range(5):
            z += cmath.exp(2j * math.pi * ((i + k) % 17) / 17) * (k + 1)
    return len(counts), total, z


def calibrate() -> float:
    """Median seconds of CALIBRATE_RUNS kernel runs, on the host right now."""
    runs = []
    for _ in range(CALIBRATE_RUNS):
        t0 = clock()
        kernel()
        runs.append(clock() - t0)
    return statistics.median(runs)


class HostClock:
    """Samples the host's speed while work runs and scales work times by it.

    Use as a context manager around the timed work: `start()` before a
    unit, `stop(mark)` after it, and `scaled(interval)` once the block has
    exited, when the samples on both sides of every unit are in.
    """

    def __init__(self):
        self.at = array("d")  # when each kernel sample started
        self.took = array("d")  # how long it took
        self.paused = 0.0  # total time spent sampling
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        # no collection may start inside a sample; the kernel frees all it
        # allocates, so the package's collections still come where they
        # would without sampling
        collecting = gc.isenabled()
        gc.disable()
        t0 = clock()
        kernel()
        took = clock() - t0
        if collecting:
            gc.enable()
        self.at.append(t0)
        self.took.append(took)
        self.paused += took
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> tuple[float, float]:
        return clock(), self.paused

    def stop(self, mark) -> tuple[float, float, float]:
        """(start, end, seconds of work without the samples taken meanwhile)."""
        paused, end = self.paused, clock()
        return mark[0], end, end - mark[0] - (paused - mark[1])

    def scaled(self, interval) -> float:
        start, end, seconds = interval
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, end + WINDOW_S)
        return seconds * REFERENCE_S / statistics.median(self.took[lo:hi] or self.took)

    def scale(self) -> float:
        """The scale factor of the whole block, from its median sample."""
        return REFERENCE_S / statistics.median(self.took)
