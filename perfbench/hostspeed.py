"""Host speed, from a fixed calibration kernel timed while the benchmark runs.

On a shared host the same instructions run up to a third slower or faster
from one minute to the next, and by as much between runs of a few seconds
(CPU time equals wall time, so the process is not descheduled: the cores
themselves slow down). A run that lands in a slow minute would read as a
regression. So while operations run, a ``Sampler`` runs one calibration
unit, a fixed mix of interpreted Python and small numpy calls like the
planner's, every ``INTERVAL_S`` of wall time. The host's speed relative to
``REFERENCE_UNIT_S`` rescales the run's times, set-up included, to seconds
at reference speed. The units add about 1.5 % to every time they interrupt.
"""
from __future__ import annotations

import signal
import time

import numpy as np

# Seconds of one unit on the 2-core box the published baselines come from
# (the median of 20,000 units); the benchmark's seconds are seconds at that speed.
REFERENCE_UNIT_S = 7.15e-4
UNIT_ITERATIONS = 60
INTERVAL_S = 0.05

_POINTS = np.random.default_rng(0).random((40, 3))


def unit_seconds() -> float:
    """Wall seconds of one calibration unit."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(UNIT_ITERATIONS):
        acc += float(np.linalg.norm(_POINTS - _POINTS[i % 40], axis=1).min())
        for x in range(30):
            acc += x * 0.5
    return time.perf_counter() - start


class Sampler:
    """Runs a unit every ``INTERVAL_S`` of wall time from a SIGALRM timer.

    Python runs the handler on the main thread between bytecodes, so a unit
    waits for a long native call to return; it never overlaps another unit.
    """

    def __enter__(self):
        self.units, self.spent = 0, 0.0
        self._busy = False
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            self.spent += unit_seconds()
            self.units += 1
        finally:
            self._busy = False

    def speed(self) -> float:
        """Host speed relative to the reference, 1 when no unit ran.

        Above 1 the host is faster than the reference; multiplying a duration
        by it gives seconds at reference speed.
        """
        return REFERENCE_UNIT_S * self.units / self.spent if self.units else 1.0
