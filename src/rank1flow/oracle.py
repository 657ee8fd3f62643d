"""Independent second implementation of the correlation engine.

Instead of the offset recursion, lift both functions explicitly to the
working stage and integrate the shifted product in closed form on the
exact breakpoint partition refined by the shift (no sampling error).
Only usable for small cut numbers and shallow depth; every value the
main engine produces must agree with this one within its error bound.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

from .correlate import CorrelationResult, pick_stage
from .scalars import Scalar, exact
from .schedule import Schedule
from .stepfun import StepFunction, lift, product_integral


def oracle_m_correlate(
    schedule: Schedule,
    functions: Sequence[StepFunction],
    times: Sequence[Scalar],
    stage: int | None = None,
) -> CorrelationResult:
    times = [exact(t) for t in times]
    t_max = max(abs(t) for t in times)
    n = pick_stage(schedule, functions[0].stage, t_max) if stage is None else stage
    lifted = [lift(schedule, f, n) for f in functions]
    w_n = schedule.width(n)
    value = complex(product_integral(lifted, times)) * float(w_n)
    bound = 2.0 * prod(f.sup_norm for f in functions) * float(t_max) * float(w_n) * len(functions)
    return CorrelationResult(value=value, error_bound=bound, stage_used=n)


def oracle_correlate(
    schedule: Schedule, f: StepFunction, g: StepFunction, t: Scalar, stage: int | None = None
) -> CorrelationResult:
    """<U(t) f, g>: :func:`oracle_m_correlate` on (f, conj g) at times (t, 0)."""
    return oracle_m_correlate(schedule, [f, g.conjugate()], (t, 0), stage=stage)
