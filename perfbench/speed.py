"""A fixed reference loop that tells how fast the machine runs right now.

On a shared host the speed of one core drifts as other tenants load it.
Timed with this loop on a 2-vCPU virtual machine, a 4-minute trace spent
57% of its seconds more than 1.25x slower than its fastest second, and one
slow stretch lasted 58 s. A run of a few seconds can fall wholly inside such
a stretch, so raw times from two runs differ by the machine, not the code.

The benchmark therefore times the reference loop around every op and scales
the op's time to a machine on which the loop takes ``REFERENCE_S``. The loop
is fixed code of the benchmark, so a change to the program cannot move it.
It mixes two kinds of work. In a slow stretch, Fraction arithmetic with
dicts and strings slows more than the program's ops do, and a bare integer
loop slows less. On ops from all four workloads, the slope of log(op time)
against log(reference time) was 0.6-0.86 for the first, 0.9-1.26 for the
second, and 0.72-1.0 for the two together.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0004
_REPEATS = 3


def _loop() -> int:
    table = {}
    total = Fraction(0)
    for i in range(75):
        table[i] = (i, str(i))
        total += Fraction(i % 7, 8)
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    return acc


def reference_seconds() -> float:
    """The fastest of a few timings of the reference loop."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = perf_counter()
        _loop()
        best = min(best, perf_counter() - start)
    return best


def scaled(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` as it would read on a machine where the loop takes
    ``REFERENCE_S``, given the loop's time just before and just after."""
    return elapsed * REFERENCE_S / ((before + after) / 2)
