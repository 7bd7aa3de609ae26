"""Machine-speed calibration for timings taken on a shared machine.

Shared machines drift by tens of percent over seconds, as neighbours load
the same cores.  A calibration times a fixed piece of work that slows down
with them; a time measured between two calibrations is rescaled by the
calibration's reference time over their mean, so it reads as on a machine
where that work takes the reference time.  Neither piece of work runs
`toricsing` code, so a change to the package moves the rescaled times
exactly as it moves the raw ones.

LOOP, pure-Python arithmetic on fractions, dicts and tuples, tracks ops that
run in the worker.  SPAWN, starting and stopping a bare interpreter, tracks
whole CLI invocations and set-up, which are mostly process start-up.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from time import perf_counter
from typing import Callable, NamedTuple


def _loop() -> None:
    table: dict = {}
    step = Fraction(1, 3)
    for i in range(250):
        key = (i % 7, i % 11)
        table[key] = table.get(key, 0) + step * (i % 5)


def _spawn() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True)


class Calibration(NamedTuple):
    work: Callable[[], None]
    ref_s: float

    def measure(self) -> float:
        t0 = perf_counter()
        self.work()
        return perf_counter() - t0

    def factor(self, before: float, after: float) -> float:
        """Rescaling factor for a time measured between two calibrations."""
        return 2 * self.ref_s / (before + after)


LOOP = Calibration(_loop, 0.001)
SPAWN = Calibration(_spawn, 0.04)
