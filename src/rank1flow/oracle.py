"""Independent second implementation of the correlation engine.

Instead of the offset recursion, lift both functions explicitly to the
working stage and integrate the shifted product in closed form on the
exact breakpoint partition refined by the shift (no sampling error).
Only usable for small cut numbers and shallow depth; every value the
main engine produces must agree with this one within its error bound.
"""

from __future__ import annotations

from typing import Sequence

from .scalars import Scalar, exact
from .schedule import Schedule
from .stepfun import StepFunction, lift, product_integral


def oracle_m_correlate(
    schedule: Schedule, functions: Sequence[StepFunction], times: Sequence[Scalar], stage: int
) -> complex:
    """The m-point correlation at working stage *stage*, the value the
    engine's recursion truncates to there."""
    lifted = [lift(schedule, f, stage) for f in functions]
    return complex(product_integral(lifted, [exact(t) for t in times])) * float(schedule.width(stage))


def oracle_correlate(schedule: Schedule, f: StepFunction, g: StepFunction, t: Scalar, stage: int) -> complex:
    """<U(t) f, g>: :func:`oracle_m_correlate` on (f, conj g) at times (t, 0)."""
    return oracle_m_correlate(schedule, [f, g.conjugate()], (t, 0), stage)
