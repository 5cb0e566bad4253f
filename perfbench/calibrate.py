"""A fixed unit of pure-Python exact arithmetic that gauges machine speed.

The benchmark's reference machine is a share of a busy host, and its speed
drifts by 20-40% over tens of seconds; CPU time moves with wall time, so the
drift is not time taken from the process but slower execution.  Timings
measured in one run therefore differ from another run's by the machine's
mood as much as by the program.

To take that out, the worker runs one calibration unit after every
operation, and ``run.py`` divides each operation's latency by the speed
factor of its round: the mean unit time of the round over ``REFERENCE_S``.
The unit is never changed, so the factor compares machine speed only, and
the scaled latencies read as seconds on the reference machine at its usual
speed.  The unit is exact Fraction elimination, the same kind of
interpreter-bound arithmetic the program does.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

# Mean time of one unit on the reference machine (2 cores, Python 3.11.7),
# over six minutes of interleaved runs of the lattice workload.
REFERENCE_S = 0.0040

SIZE = 9


def unit() -> float:
    """Eliminate a fixed rational 9x10 system; the wall time it took."""
    start = perf_counter()
    rng = random.Random(7)
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(SIZE + 1)]
         for _ in range(SIZE)]
    for c in range(SIZE):
        p = next(r for r in range(c, SIZE) if m[r][c])
        m[c], m[p] = m[p], m[c]
        for r in range(SIZE):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return perf_counter() - start


def speed_factor(unit_times: list[float]) -> float:
    """How much slower than usual the machine ran while these units ran."""
    return sum(unit_times) / len(unit_times) / REFERENCE_S
