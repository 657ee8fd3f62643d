"""Exact Koopman inner products for stage-measurable step functions.

The Koopman operator is U_T(t) f = f o T_{-t}; in tower coordinates T_t
moves points up at unit speed, so (U_T(t) f)(y) = f(y - t).

For stage-k measurable f, g and a working stage N the engine evaluates

    <U_T(t) f, g>  ~  w_N * B_N(-t),     B_n(tau) = int F_n(y + tau) conj(G_n(y)) dy,

where F_n, G_n are the lifts of f, g to stage n.  B satisfies the offset
recursion

    B_{n+1}(tau) = sum over pairs (j, j') of copies:  B_n(tau + o_{j'} - o_j),

grouped through :func:`overlap_pairs`, with the exact integral of the
product of the two step functions as the base case.  The only error is
the mass of copy-boundary crossings at stages above N; per stage it is
at most ||f||_inf ||g||_inf |t| w_n, and the widths sum geometrically,
so the total is bounded by 2 ||f||_inf ||g||_inf |t| w_N.

One recursion, :class:`MCorrelator`, serves every arity: the m-point
correlation runs it on tuples of shifts, one per function after the
first, and :class:`Correlator` is its m = 2 case on (f, conj g) at times
(t, 0).  It runs on the integer lattice of :mod:`rank1flow.schedule`:
the shifts are put on a lattice whose scale D is a multiple of their
denominators and of those of stages k..N, and from there on memo keys,
the |tau| < h_n test and the deltas are ints (x = A/D) or int pairs
(x = (A + B*sqrt 2)/D).  The scale is also a multiple of the
functions' breakpoint denominators, so the base case,
:func:`product_integral`, takes the shifts in the same coordinates as
the functions' breakpoint grids: nothing is decoded on the query path.
A float time enters at its exact binary value.
"""

from __future__ import annotations

from collections import _count_elements
from dataclasses import dataclass
from itertools import chain, product
from math import lcm, prod
from typing import Callable, Sequence

from .errors import RangeError, ResourceError
from .scalars import Scalar, Sqrt2, exact
from .schedule import Lattice, Schedule, rescaled, scalar_denominator, within
from .stepfun import StepFunction, product_integral

DEFAULT_GUARD = 10**6
STAGE_MARGIN = 4


@dataclass
class CorrelationResult:
    value: complex
    error_bound: float
    stage_used: int


@dataclass
class WeakLimitTarget:
    """The operator alpha*I + beta*U_T(s)."""

    alpha: complex = 0
    beta: complex = 0
    s: Scalar = 0


def pick_stage(schedule: Schedule, k: int, t_abs: Scalar, max_stage: int = 64) -> int:
    """Smallest N >= k with h_N >= STAGE_MARGIN * (h_k + |t|)."""
    need = STAGE_MARGIN * (schedule.height(k) + t_abs)
    n = k
    while n <= max_stage:
        if not schedule.height(n) < need:
            return n
        n += 1
    raise RangeError(f"|t| = {float(t_abs):g} out of range: no stage up to {max_stage} is tall enough")


class MCorrelator:
    """integral of prod_i f_i(T_{-t_i} x) dmu via the m-fold offset
    recursion on the shifts t_i - t_0, i >= 1, memoized on one integer
    lattice.

    B_n is stored at (n, x), with x the lattice coordinates of the shift
    tuple at ``_scale`` (at m = 2, of the one shift).  That scale starts at
    the lcm of the functions' breakpoint denominators, so the base case
    reads their grids on it, and only grows: a query that needs a finer
    one rescales the keys already stored, so the memo is shared across
    query times.  The step is chosen once, from m: the schedule's sorted
    overlaps at m = 2, else tuples of copies grouped by delta vector.
    """

    def __init__(self, schedule: Schedule, functions: Sequence[StepFunction], guard: int = DEFAULT_GUARD):
        if len(functions) < 2:
            raise RangeError("m-point correlation needs m >= 2")
        if len({f.stage for f in functions}) != 1:
            raise RangeError("all functions must live at a common stage (lift the shallower ones)")
        self.schedule = schedule
        self.functions = list(functions)
        self.k = functions[0].stage
        self.guard = guard
        self._scale = lcm(*(f.denominator for f in functions))
        self._sqrt2 = schedule.mode == "sqrt2" or any(f.sqrt2 for f in functions)
        self._lattice = Lattice(self._scale, self._sqrt2)
        self._memo: dict = {}  # (n, lattice coordinates on self._scale) -> B_n
        self._pair = len(functions) == 2
        self._step = self._overlaps if self._pair else self._windows

    def _correlation(self, shifts: tuple, t_abs: Scalar, stage: int | None) -> CorrelationResult:
        """w_N * B_N at exact shifts, one per function after the first,
        with the bound for times up to *t_abs*; B_N is 0 when a shift is
        outside |x| < h_N."""
        sched = self.schedule
        n = pick_stage(sched, self.k, t_abs) if stage is None else stage
        if n < self.k:
            raise RangeError(f"stage {n} is below the functions' stage {self.k}")
        stages = [sched.stage(m) for m in range(self.k, n + 1)]
        scale = lcm(self._scale, *map(scalar_denominator, shifts), *(st.denominator for st in stages))
        if scale != self._scale:
            m = scale // self._scale
            self._memo = {(i, rescaled(x, m)): v for (i, x), v in self._memo.items()}
            self._scale = scale
        self._lattice = lattice = Lattice(scale, self._sqrt2 or any(isinstance(s, Sqrt2) for s in shifts))
        xs = tuple(map(lattice.encode, shifts))
        h = lattice.encode(stages[-1].h)
        value = 0j
        if all(within(x, h) for x in xs):
            value = complex(self._B(n, xs[0] if self._pair else xs))
        w_n = float(stages[-1].w)
        return CorrelationResult(value=value * w_n, error_bound=self._bound(float(t_abs), w_n), stage_used=n)

    def _B(self, n: int, x):
        key = (n, x)
        v = self._memo.get(key)
        if v is None:
            if n == self.k:
                zero = (0, 0) if self._lattice.sqrt2 else 0
                v = product_integral(self.functions, (zero, x) if self._pair else (zero, *x), self._lattice)
            else:
                v = 0j
                for delta, mult in self._step(n - 1, x):
                    v += mult * self._B(n - 1, delta)
            if len(self._memo) >= self.guard:
                raise ResourceError(f"memo blowup near stage {n}: more than {self.guard} distinct shifts")
            self._memo[key] = v
        return v

    def _overlaps(self, n: int, x):
        return self.schedule.overlaps(n, x, self._lattice, guard=self.guard)

    def _windows(self, n: int, xs: tuple):
        """Copy j0 with copies j'_i of the windows of each shift, j0 ascending,
        then the j'_i in product order."""
        sched, lattice = self.schedule, self._lattice
        per_copy = zip(*(sched.windows(n, x, lattice, guard=self.guard) for x in xs))
        groups: dict = {}
        _count_elements(groups, chain.from_iterable(product(*windows) for windows in per_copy))
        if len(groups) > self.guard:
            raise ResourceError(f"m-tuple delta blowup at stage {n}: more than {self.guard} delta vectors")
        return groups.items()

    def _bound(self, t: float, w: float) -> float:
        return 2.0 * prod(f.sup_norm for f in self.functions) * t * w * len(self.functions)

    def at(self, times: Sequence[Scalar], stage: int | None = None) -> CorrelationResult:
        if len(times) != len(self.functions):
            raise RangeError("need one time per function")
        times = [exact(t) for t in times]
        return self._correlation(tuple(t - times[0] for t in times[1:]), max(abs(t) for t in times), stage)


def m_correlate(
    schedule: Schedule,
    functions: Sequence[StepFunction],
    times: Sequence[Scalar],
    guard: int = DEFAULT_GUARD,
    stage: int | None = None,
) -> CorrelationResult:
    return MCorrelator(schedule, functions, guard=guard).at(times, stage=stage)


class Correlator(MCorrelator):
    """Koopman correlations <U_T(t) f, g> of one pair under one schedule:
    the m = 2 case on (f, conj g) at times (t, 0), with a shift memo shared
    across query times."""

    def __init__(self, schedule: Schedule, f: StepFunction, g: StepFunction, guard: int = DEFAULT_GUARD):
        super().__init__(schedule, (f, g.conjugate()), guard)

    def _bound(self, t: float, w: float) -> float:
        """The 2-point bound, half the m-point formula at m = 2."""
        return 2.0 * self.functions[0].sup_norm * self.functions[1].sup_norm * t * w

    def at(self, t: Scalar, stage: int | None = None) -> CorrelationResult:
        t = exact(t)
        return self._correlation((-t,), abs(t), stage)


def correlate(
    schedule: Schedule, f: StepFunction, g: StepFunction, t: Scalar, guard: int = DEFAULT_GUARD, stage: int | None = None
) -> CorrelationResult:
    return Correlator(schedule, f, g, guard=guard).at(t, stage=stage)


def inner_product(schedule: Schedule, f: StepFunction, g: StepFunction) -> complex:
    """<f, g> at the common stage, weight w_k: the base case at shift 0."""
    return complex(product_integral([f, g.conjugate()], (0, 0))) * float(schedule.width(f.stage))


# ---------------------------------------------------------------------------
# weak-limit probes and composite correlations
# ---------------------------------------------------------------------------


@dataclass
class WeakLimitReport:
    times: list
    residuals: list  # max over the test family, per time
    bounds: list  # summed per-term error bounds, per time
    threshold: float | None
    final_below: bool | None

    @property
    def final_residual(self) -> float:
        return self.residuals[-1]


def weak_limit_probe(
    schedule: Schedule,
    times: Sequence[Scalar],
    target: WeakLimitTarget,
    test_family: Sequence[tuple],
    threshold: float | None = None,
    guard: int = DEFAULT_GUARD,
) -> WeakLimitReport:
    """Residuals r_j = max over (f, g) of
    |<U_T(t_j) f, g> - alpha <f, g> - beta <U_T(s) f, g>|.

    Monotonicity is not asserted; the report only flags whether the final
    residual is below the caller's threshold.
    """
    correlators = [Correlator(schedule, f, g, guard=guard) for f, g in test_family]
    base = []
    for corr, (f, g) in zip(correlators, test_family):
        ip = inner_product(schedule, f, g)
        ref = corr.at(target.s) if target.beta else None
        base.append((ip, ref))
    residuals, bounds = [], []
    for t in times:
        worst = 0.0
        bnd = 0.0
        for corr, (ip, ref) in zip(correlators, base):
            res = corr.at(t)
            predicted = complex(target.alpha) * ip
            b = res.error_bound
            if ref is not None:
                predicted += complex(target.beta) * ref.value
                b += abs(complex(target.beta)) * ref.error_bound
            worst = max(worst, abs(res.value - predicted))
            bnd = max(bnd, b)
        residuals.append(worst)
        bounds.append(bnd)
    final_below = None if threshold is None else residuals[-1] < threshold
    return WeakLimitReport(list(times), residuals, bounds, threshold, final_below)


def perturbation_bound(form: Callable, magnitudes: Sequence, bounds: Sequence) -> float:
    """How far form(v) can move when each argument v_i may be off by e_i.

    *form* is multilinear in its arguments with nonnegative coefficients
    (a product of factors, or a permanent in its rows); the worst case is
    form(|v| + e) - form(|v|), summed here as the telescoping series

        sum_i form(|v_1|, ..., |v_{i-1}|, e_i, |v_{i+1}| + e_{i+1}, ...),

    so that a single argument gives exactly form(e).
    """
    return sum(
        form([*magnitudes[:i], e, *(m + b for m, b in zip(magnitudes[i + 1 :], bounds[i + 1 :]))])
        for i, e in enumerate(bounds)
    )


def product_correlate(components: Sequence[tuple], t: Scalar, guard: int = DEFAULT_GUARD) -> CorrelationResult:
    """Cartesian product flow: components are (schedule, scale, f, g)
    tuples; the value is the exact product of the per-component values at
    time scale * t, the bound that of a product of certified factors."""
    results = [correlate(schedule, f, g, scale * t, guard=guard) for schedule, scale, f, g in components]
    value = complex(1, 0)
    for r in results:
        value *= r.value
    bound = perturbation_bound(prod, [abs(r.value) for r in results], [r.error_bound for r in results])
    return CorrelationResult(value=value, error_bound=bound, stage_used=max((r.stage_used for r in results), default=0))


@dataclass
class FockComponent:
    """Shifts s_1 < ... < s_k with multiplicities and test vectors; the
    diagonal matrix coefficient of the corresponding symmetric-tensor
    block factorizes over the shifts."""

    shifts: tuple
    multiplicities: tuple
    vectors: tuple  # one StepFunction per shift

    def __post_init__(self):
        if not (len(self.shifts) == len(self.multiplicities) == len(self.vectors)):
            raise RangeError("shifts, multiplicities and vectors must align")
        for a, b in zip(self.shifts, self.shifts[1:]):
            if not a < b:
                raise RangeError("shifts must be strictly increasing")
        if any(m < 1 for m in self.multiplicities):
            raise RangeError("multiplicities must be >= 1")


def component_correlate(
    schedule: Schedule, component: FockComponent, t: Scalar, guard: int = DEFAULT_GUARD
) -> CorrelationResult:
    """prod_l <U_T(s_l t) f_l, f_l> ** n_l, bounded as a product with each
    factor repeated n_l times."""
    factors = []
    stage_used = 0
    for s_l, f_l in zip(component.shifts, component.vectors):
        r = correlate(schedule, f_l, f_l, s_l * t, guard=guard)
        factors.append(r)
        stage_used = max(stage_used, r.stage_used)
    value = complex(1, 0)
    for r, n_l in zip(factors, component.multiplicities):
        value *= r.value**n_l
    repeated = [r for r, n_l in zip(factors, component.multiplicities) for _ in range(n_l)]
    bound = perturbation_bound(prod, [abs(r.value) for r in repeated], [r.error_bound for r in repeated])
    return CorrelationResult(value=value, error_bound=bound, stage_used=stage_used)
