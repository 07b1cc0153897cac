"""Host speed, sampled during a run so that timings can be scaled to a
reference speed.

On a shared host the CPU speed of the same code drifts by tens of percent
over minutes: identical operations measured ten minutes apart differ by up
to 40%, with CPU time equal to wall time, so the drift is in the speed of
the CPU itself, not in waiting for it. A run therefore also times a fixed
probe between operations. The probe is plain Python of the kind wardalloc
spends its time in: `Fraction` arithmetic and comparisons, tuples, dicts and
JSON on a small working set, and a walk over a table of `Fraction`s
scattered in memory. The probe uses nothing of wardalloc, so no change to
the package can move it. Timings scaled by
`REFERENCE_S / median(probe times)` read as on a host where the probe takes
exactly `REFERENCE_S`.

Over seven minutes of alternating probes and `central-large` operations,
the quartile spread of 20-second averages of operation time fell from 0.16
unscaled to 0.065 scaled; the two correlated at 0.9.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time
from fractions import Fraction

# Probe time of the reference host, about what a 2-vCPU Intel Xeon host
# with Python 3.11 takes.
REFERENCE_S = 0.025
# Probe time as a share of the operation time measured so far.
SHARE = 0.08
# Probes taken before the first operation.
FIRST = 8
# Fractions in the table the probe walks; about 2 MB.
TABLE = 20000
WALK = 1200


def make_table() -> list[Fraction]:
    """The probe's fixed table, in an order unrelated to allocation order."""
    rng = random.Random(2022)
    table = [Fraction(rng.randrange(1, 10**4), rng.randrange(1, 10**4)) for _ in range(TABLE)]
    rng.shuffle(table)
    return table


def probe(table: list[Fraction]) -> float:
    """Seconds one run of the fixed probe takes."""
    enabled = gc.isenabled()
    gc.disable()  # a large heap left by the program must not slow the probe
    try:
        start = time.perf_counter()
        total = Fraction(0)
        small: dict[tuple[int, int], int] = {}
        for i in range(1, 750):
            f = Fraction(i % 97 + 1, i % 89 + 2)
            total += f * f - Fraction(1, i)
            small[(i % 50, i % 7)] = total.numerator % 1000
        json.dumps(sorted(small.items()))
        total, least, seen = Fraction(0), table[0], {}
        for i, value in enumerate(table[:WALK]):
            total += value
            if value < least:
                least = value
            seen[i] = total.denominator % 97
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Probe times taken through a run, in proportion to operation time."""

    def __init__(self) -> None:
        self.table = make_table()
        self.samples = [probe(self.table) for _ in range(FIRST)]

    def keep_up(self, timed: float) -> None:
        """Probe until probing has taken SHARE of `timed` seconds."""
        while sum(self.samples) < SHARE * timed:
            self.samples.append(probe(self.table))

    def scale(self) -> float:
        """Factor that turns this host's seconds into reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)
