"""Exact Koopman inner products for stage-measurable step functions.

The Koopman operator is U_T(t) f = f o T_{-t}; in tower coordinates T_t
moves points up at unit speed, so (U_T(t) f)(y) = f(y - t).

For stage-k measurable f, g and a working stage N the engine evaluates

    <U_T(t) f, g>  ~  w_N * B_N(-t),     B_n(tau) = int F_n(y + tau) conj(G_n(y)) dy,

where F_n, G_n are the lifts of f, g to stage n.  B satisfies the offset
recursion

    B_{n+1}(tau) = sum over pairs (j, j') of copies:  B_n(tau + o_{j'} - o_j),

grouped through :func:`overlap_pairs`, with the exact cross-correlation
of the two step functions as the base case.  The only error is the mass
of copy-boundary crossings at stages above N; per stage it is at most
||f||_inf ||g||_inf |t| w_n, and the widths sum geometrically, so the
total is bounded by 2 ||f||_inf ||g||_inf |t| w_N.

:class:`Correlator` runs the recursion for exact times on the integer
lattice of :mod:`rank1flow.schedule`: -t is put on a lattice whose scale
D is a multiple of the denominators of t and of stages k..N, and from
there on shifts, memo keys, the |tau| < h_n tests and the overlap deltas
are ints (x = A/D) or int pairs (x = (A + B*sqrt 2)/D).  A shift becomes
a scalar again only as the argument of the base case.  Float times and
float-mode schedules take the same recursion on scalar coordinates.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import product as iproduct
from math import lcm
from typing import NamedTuple, Sequence

from .errors import RangeError, ResourceError
from .scalars import Scalar, Sqrt2
from .schedule import Lattice, Schedule, scalar_denominator, within
from .stepfun import StepFunction, cross_correlation, product_integral

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


class Correlator:
    """Koopman correlations of one (f, g) pair under one schedule, with a
    shift memo shared across query times.

    Exact shifts are memoized on one lattice whose scale only grows: a
    time that needs a finer scale rescales the keys already stored.  Float
    shifts have a memo of their own, keyed as before the lattice existed
    (quantized on float-mode schedules), since a float and a lattice int
    may compare equal while meaning different shifts.
    """

    def __init__(self, schedule: Schedule, f: StepFunction, g: StepFunction, guard: int = DEFAULT_GUARD):
        if f.stage != g.stage:
            raise RangeError("f and g must live at a common stage (lift the shallower one)")
        self.schedule = schedule
        self.f = f
        self.g = g
        self.k = f.stage
        self.guard = guard
        self._scale = 1
        self._memo: dict = {}  # (n, lattice coordinate on self._scale) -> B_n
        self._scalar_memo: dict = {}  # (n, float key) -> B_n

    def _query(self, tau, n: int):
        """The per-query context of :meth:`_B` and tau in its coordinates."""
        sched = self.schedule
        stages = [sched.stage(m) for m in range(self.k, n + 1)]
        if sched.mode == "float" or isinstance(tau, float):
            quanta = None
            if sched.mode == "float":
                quanta = {st.n: 1e-12 * max(1.0, float(st.h)) for st in stages}
            return _Query(None, {st.n: st.h for st in stages}, quanta, self._scalar_memo), tau
        scale = lcm(self._scale, scalar_denominator(tau), *(st.denominator for st in stages))
        if scale != self._scale:
            self._rescale(scale)
        lattice = Lattice(scale, sched.mode == "sqrt2" or isinstance(tau, Sqrt2))
        heights = {st.n: lattice.encode(st.h) for st in stages}
        return _Query(lattice, heights, None, self._memo), lattice.encode(tau)

    def _rescale(self, scale: int):
        m = scale // self._scale
        entries = list(self._memo.items())
        self._memo.clear()
        for (n, x), v in entries:
            self._memo[n, x * m if type(x) is int else (x[0] * m, x[1] * m)] = v
        self._scale = scale

    def _B(self, n: int, tau, q: "_Query"):
        if not within(tau, q.heights[n]):
            return 0j
        key = (n, tau) if q.quanta is None else (n, round(float(tau) / q.quanta[n]))
        v = q.memo.get(key)
        if v is None:
            if n == self.k:
                v = cross_correlation(self.f, self.g, tau if q.lattice is None else q.lattice.decode(tau))
            else:
                v = 0j
                for delta, mult in self.schedule.overlaps(n - 1, tau, guard=self.guard, lattice=q.lattice):
                    v += mult * self._B(n - 1, delta, q)
            self._remember(q.memo, key, v)
        return v

    def _remember(self, memo: dict, key, v):
        if len(self._memo) + len(self._scalar_memo) >= self.guard:
            raise ResourceError(
                f"memo blowup near stage {key[0]}: more than {self.guard} distinct shifts"
            )
        memo[key] = v

    def at(self, t: Scalar, stage: int | None = None) -> CorrelationResult:
        n = pick_stage(self.schedule, self.k, abs(t)) if stage is None else stage
        if n < self.k:
            raise RangeError(f"stage {n} is below the functions' stage {self.k}")
        w_n = self.schedule.width(n)
        q, tau = self._query(-t, n)
        value = complex(self._B(n, tau, q)) * float(w_n)
        bound = 2.0 * self.f.sup_norm * self.g.sup_norm * float(abs(t)) * float(w_n)
        return CorrelationResult(value=value, error_bound=bound, stage_used=n)


class _Query(NamedTuple):
    lattice: Lattice | None  # None: scalar coordinates
    heights: dict  # n -> h_n in the query's coordinates
    quanta: dict | None  # n -> float key quantum (float-mode schedules only)
    memo: dict


def correlate(
    schedule: Schedule, f: StepFunction, g: StepFunction, t: Scalar, guard: int = DEFAULT_GUARD, stage: int | None = None
) -> CorrelationResult:
    return Correlator(schedule, f, g, guard=guard).at(t, stage=stage)


def inner_product(schedule: Schedule, f: StepFunction, g: StepFunction) -> complex:
    """<f, g> at the common stage, weight w_k."""
    return complex(cross_correlation(f, g, 0)) * float(schedule.width(f.stage))


# ---------------------------------------------------------------------------
# m-point correlations
# ---------------------------------------------------------------------------


class MCorrelator:
    """integral of prod_i f_i(T_{-t_i} x) dmu via the m-fold offset
    recursion; tuples of copies are grouped by their delta vectors."""

    def __init__(self, schedule: Schedule, functions: Sequence[StepFunction], guard: int = DEFAULT_GUARD):
        if len(functions) < 2:
            raise RangeError("m-point correlation needs m >= 2")
        stages = {f.stage for f in functions}
        if len(stages) != 1:
            raise RangeError("all functions must live at a common stage")
        self.schedule = schedule
        self.functions = list(functions)
        self.k = functions[0].stage
        self.guard = guard
        self._memo: dict = {}

    def _key(self, n, taus):
        if self.schedule.mode == "float":
            quantum = 1e-12 * max(1.0, float(self.schedule.height(n)))
            return n, tuple(round(float(t) / quantum) for t in taus)
        return n, taus

    def _B(self, n: int, taus: tuple):
        h = self.schedule.height(n)
        if any(not abs(t) < h for t in taus):
            return 0j
        key = self._key(n, taus)
        v = self._memo.get(key)
        if v is not None:
            return v
        if n == self.k:
            v = product_integral(self.functions, (0 * h,) + taus)
        else:
            st = self.schedule.stage(n - 1)
            offs = st.offsets
            h_prev = st.h
            v = 0j
            groups: Counter = Counter()
            for j0, o0 in enumerate(offs):
                per_i = []
                dead = False
                for tau in taus:
                    lo = o0 - tau - h_prev
                    hi = o0 - tau + h_prev
                    a = bisect_right(offs, lo)
                    b = bisect_left(offs, hi)
                    if a >= b:
                        dead = True
                        break
                    per_i.append([tau + offs[jp] - o0 for jp in range(a, b)])
                if dead:
                    continue
                for combo in iproduct(*per_i):
                    groups[combo] += 1
                if len(groups) > self.guard:
                    raise ResourceError(f"m-tuple delta blowup at stage {st.n}")
            for deltas, mult in groups.items():
                v += mult * self._B(n - 1, deltas)
        if len(self._memo) >= self.guard:
            raise ResourceError("m-point memo blowup")
        self._memo[key] = v
        return v

    def at(self, times: Sequence[Scalar], stage: int | None = None) -> CorrelationResult:
        if len(times) != len(self.functions):
            raise RangeError("need one time per function")
        t0 = times[0]
        taus = tuple(t - t0 for t in times[1:])
        t_max = max(abs(t) for t in times)
        n = pick_stage(self.schedule, self.k, t_max) if stage is None else stage
        w_n = self.schedule.width(n)
        value = complex(self._B(n, taus)) * float(w_n)
        sup = 1.0
        for f in self.functions:
            sup *= f.sup_norm
        bound = 2.0 * sup * float(t_max) * float(w_n) * len(self.functions)
        return CorrelationResult(value=value, error_bound=bound, stage_used=n)


def m_correlate(
    schedule: Schedule,
    functions: Sequence[StepFunction],
    times: Sequence[Scalar],
    guard: int = DEFAULT_GUARD,
    stage: int | None = None,
) -> CorrelationResult:
    return MCorrelator(schedule, functions, guard=guard).at(times, stage=stage)


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


def product_correlate(components: Sequence[tuple], t: Scalar, guard: int = DEFAULT_GUARD) -> CorrelationResult:
    """Cartesian product flow: components are (schedule, scale, f, g)
    tuples; the value is the exact product of the per-component values at
    time scale * t, the bound the first-order product rule."""
    values = []
    bounds = []
    stage_used = 0
    for schedule, scale, f, g in components:
        r = correlate(schedule, f, g, scale * t, guard=guard)
        values.append(r.value)
        bounds.append(r.error_bound)
        stage_used = max(stage_used, r.stage_used)
    value = complex(1, 0)
    for v in values:
        value *= v
    bound = 0.0
    for i, e in enumerate(bounds):
        partial = e
        for j, v in enumerate(values):
            if j != i:
                partial *= abs(v) + bounds[j]
        bound += partial
    return CorrelationResult(value=value, error_bound=bound, stage_used=stage_used)


def direct_sum_correlate(
    schedule: Schedule, families: dict, t: Scalar, guard: int = DEFAULT_GUARD
) -> CorrelationResult:
    """Koopman correlation of the scaled direct sum over a finite scale
    set: families maps s -> (f_s, g_s); the component at scale s is
    probed at time s * t."""
    value = 0j
    bound = 0.0
    stage_used = 0
    for s, (f, g) in sorted(families.items()):
        r = correlate(schedule, f, g, s * t, guard=guard)
        value += r.value
        bound += r.error_bound
        stage_used = max(stage_used, r.stage_used)
    return CorrelationResult(value=value, error_bound=bound, stage_used=stage_used)


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
    """prod_l <U_T(s_l t) f_l, f_l> ** n_l, with a first-order error
    bound."""
    factors = []
    stage_used = 0
    for s_l, f_l in zip(component.shifts, component.vectors):
        r = correlate(schedule, f_l, f_l, s_l * t, guard=guard)
        factors.append(r)
        stage_used = max(stage_used, r.stage_used)
    value = complex(1, 0)
    for r, n_l in zip(factors, component.multiplicities):
        value *= r.value**n_l
    bound = 0.0
    for i, (r_i, n_i) in enumerate(zip(factors, component.multiplicities)):
        partial = n_i * r_i.error_bound * abs(r_i.value) ** (n_i - 1)
        for j, (r_j, n_j) in enumerate(zip(factors, component.multiplicities)):
            if j != i:
                partial *= abs(r_j.value) ** n_j
        bound += partial
    return CorrelationResult(value=value, error_bound=bound, stage_used=stage_used)
