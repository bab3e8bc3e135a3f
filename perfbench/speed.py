"""Calibration loop that tracks the processor's momentary speed.

On a shared machine the speed of one processor swings by up to 70%, in
phases from a fraction of a second to tens of seconds. The benchmark keeps a
timeline of calibration samples, each the time of a fixed pure-Python loop:
one at every boundary it marks (before and after each page and each step)
and one every PERIOD_S from a timer signal, which also samples inside long
calls into the package. An interval's time is then scaled by the mean
calibration time of the samples at its ends and inside it, so a run in a
slow phase reads like one in a fast phase.
"""

from __future__ import annotations

import signal
import time

NOMINAL_CAL_S = 0.0005  # calibration time that normalised times are scaled to
PERIOD_S = 0.05  # timer sampling period


def calibrate() -> float:
    """Time one run of the loop (about 0.5 ms)."""
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(3000):
        key = str(i % 97)
        table[key] = table.get(key, 0) + len(key.upper())
    return time.perf_counter() - t0


class Speedometer:
    """Calibration samples in the order taken, while used as a context
    manager also from a timer signal every PERIOD_S. With a tracer, each
    sample is a span of its own, so no layer's self time includes it."""

    def __init__(self, tracer=None) -> None:
        self.cals: list[float] = []  # calibration time of each sample
        self.costs: list[float] = []  # wall time each sample took
        self.tracer = tracer
        self._busy = False

    def _take(self) -> int:
        if self._busy:  # a timer signal during a boundary sample
            return -1
        self._busy = True
        if self.tracer is not None:
            self.tracer.open("bench.calibrate")
        t0 = time.perf_counter()
        self.cals.append(calibrate())
        self.costs.append(time.perf_counter() - t0)
        if self.tracer is not None:
            self.tracer.close("bench.calibrate_s")
        index = len(self.cals) - 1
        self._busy = False
        return index

    def mark(self) -> int:
        """Take a boundary sample and return its index."""
        return self._take()

    def interval(self, first: int, last: int, wall: float) -> tuple[float, float]:
        """(wall time less the samples taken inside it, mean calibration
        time) of an interval timed between the marks ``first`` and ``last``."""
        cals = self.cals[first:last + 1]
        return wall - sum(self.costs[first + 1:last]), sum(cals) / len(cals)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self._take())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def normalised(samples) -> float:
    """Seconds at nominal speed from (wall time, calibration time) pairs:
    the summed wall time scaled by NOMINAL_CAL_S over the summed
    calibration time."""
    samples = list(samples)
    return NOMINAL_CAL_S * sum(wall for wall, _ in samples) / sum(cal for _, cal in samples)
