"""A fixed reference computation that measures how fast the machine is now.

The hosts this benchmark runs on change speed by 25-45% within ten
minutes, as other tenants load them, and CPU time moves with wall time.
Every process of a library workload therefore also times this
computation between the operations it measures, and a run reports its
times at a nominal speed: measured seconds * NOMINAL_S / (median of all
the run's samples of this computation).  It uses no hermgrass code, so
no change to the package can move it.  Its mix resembles the package's
hot loops: table lookups on uint8 arrays a few MB large, and a plain
interpreter loop.  Changing it changes the unit of every time recorded
before, so it stays fixed.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Seconds one run takes on the nominal machine.
NOMINAL_S = 0.1
# Reference time spent per second of measured work.
SHARE = 0.2

_rng = np.random.default_rng(20240901)
_CODES = _rng.integers(0, 64, size=(1024, 2048), dtype=np.uint8)
_TABLE = _rng.integers(0, 64, size=(64, 64), dtype=np.uint8)


def seconds() -> float:
    """Time one run of the reference computation."""
    t0 = perf_counter()
    a = _CODES
    for _ in range(6):
        a = _TABLE[a, _CODES]
    acc = 0
    for i in range(150_000):
        acc += (i * i) % 7
    return perf_counter() - t0


class Meter:
    """Reference samples taken alongside measured work.

    ``owe(t)`` records t seconds of measured work; ``settle(at_least)``
    runs the reference until SHARE of the work since the last settle is
    paid back, and at least ``at_least`` times.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._debt = 0.0

    def owe(self, work_s: float) -> None:
        self._debt += SHARE * work_s

    def settle(self, at_least: int = 0) -> None:
        runs = 0
        while self._debt > 0 or runs < at_least:
            self.samples.append(seconds())
            self._debt -= self.samples[-1]
            runs += 1


def scale(samples: list[float]) -> float:
    """Factor that turns seconds measured next to ``samples`` into
    seconds at the nominal speed."""
    return NOMINAL_S / statistics.median(samples)
