"""Machine-speed normalization.

On a shared host the same op can take twice as long from one second to
the next; on a 2-core virtual machine the median of one 25 s run
differed from the next by up to 50%.  Every timed interval is therefore
bracketed by calibration passes, a fixed loop of pure-Python exact
arithmetic that shares no code with ``rank1flow``, and reported as

    measured seconds * NOMINAL_PASS_S / mean(pass before, pass after),

that is, in seconds of a host on which one pass takes ``NOMINAL_PASS_S``.
A change to the program cannot change a pass, so a slower program still
reads slower; only the host's speed drift is divided out.  The raw wall
seconds are printed beside every normalized figure.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# one pass on an idle 2-core x86-64 host with Python 3.11
NOMINAL_PASS_S = 0.010
PASS_ITERATIONS = 1500


def calibration_pass() -> float:
    """Seconds one pass of the fixed loop takes now (collector paused, so
    garbage left by the program does not land in the pass)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table: dict = {}
        for i in range(1, PASS_ITERATIONS):
            x = Fraction(i, i + 7)
            y = x * x - Fraction(1, i + 3)
            table[i % 97] = table.get(i % 97, 0) + (y < x)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(before: float, after: float) -> float:
    """Multiplier that turns wall seconds measured between two passes
    into nominal seconds."""
    return NOMINAL_PASS_S / ((before + after) / 2)
