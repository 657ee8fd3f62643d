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
(t, 0).  It runs on the integer lattice of :mod:`rank1flow.schedule`.
A query of :meth:`~MCorrelator.at` takes each time through
:func:`~rank1flow.scalars.exact` once (a float enters at its exact binary
value) and encodes it once, on the smallest lattice that holds the
query's times and the functions' breakpoints (:meth:`Lattice.holding`);
:meth:`Correlator.sample` takes the times as their coordinates already,
ints T on a scale D, as a curve's grid i*p/q comes.  The shifts, |t|,
the stage pick (:func:`pick_stage`) and the bound's float |t| read those
coordinates, with no scalar arithmetic per time.  At m = 2, a batch of
``_ARRAY_MIN_TIMES`` times or more on an int lattice, its coordinates
below 2**53, holds them in int64 arrays: the stage pick is one
``np.searchsorted``, |x| < h_N one comparison, each working stage's keys
one ``np.unique`` whose inverse places each time's value, and the values
times w_N and the bounds are arrays, bit for bit those of the per-time
loop that every other batch takes, which returns lists.  ``at`` wraps
either into :class:`CorrelationResult` lists; ``sample`` hands out
arrays.  The query's lattice also holds stages k..N, and the shifts are
rescaled to it once.  On it, memo keys, the |tau| < h_n test and the
deltas are ints (x = A/D) or int pairs (x = (A + B*sqrt 2)/D), and the
base case takes the shifts in the same coordinates as the functions'
breakpoint grids: nothing is decoded on the query path.

A query is a batch of times, and the recursion is evaluated for the
whole batch in one level-synchronous pass, not depth first; the memos
and the lattice live for that pass only, so a correlator keeps nothing
from one query to the next.  The working stage of every time is picked
first, so a time out of range raises before any step is taken.  Top
down, from the highest working stage to stage k, each stage's frontier
is the distinct shifts the stage above needs plus those of the times
whose working stage it is, and the schedule's step is taken for all of
them at once: one call of
:meth:`Schedule.overlaps` at m = 2 (see :func:`overlap_batch`), or of
:meth:`Schedule.tuple_overlaps` at m >= 3, per stage and batch.  Bottom
up, from stage k back, each new value is summed over its step in the
order the step lists the deltas (increasing at m = 2), the order of a
depth-first recursion, so every value is bit-identical to it, whatever
the batch.  Each level is a frontier and, per member, its values in
frontier order.  An array step (at m = 2) comes with its distinct deltas,
an increasing int64 array, and each delta's index among them.  Those
keys, the keys wanted there appended, are the frontier one stage down,
so the values there are gathered by the index, with no key looked up,
and each shift's terms mult * B(delta) are added by ``np.bincount``, the
real and the imaginary parts apart, into the level's array of values.
``bincount`` adds in input order from 0.0, and a complex times an int64
is the same product as in Python, so the sums are the list step's, bit
for bit.  A list step (at m = 2) and an m-tuple step are summed term by
term in Python, on Python ints and complex numbers, reading the values
one stage down by key.  At stage k the whole frontier, for the whole
family, is one call of :func:`~rank1flow.stepfun.array_integrals` where
the lattice and the frontier allow it (an int lattice, coordinates below
2**53, the members' bands inside int64, at least ``_ARRAY_MIN_ROWS``
shift tuples), and :func:`product_integral` per member and shift tuple
otherwise: the same values, bit for bit.

A correlator takes a family, one function tuple per member, all of one
arity and one stage.  At the same times the members need the same keys,
so the frontiers, the steps and the base case are the family's, one step
per stage and batch and one base case per batch; only the sums run per
member, on its own values, and the base case gives each member its own
array, so each value is the one the member gets alone.  Neither the correlator
nor the schedule keeps a step, a memo or a threshold of
:func:`pick_stage`.  :data:`rank1flow.schedule.GUARD`, read when its
check runs, bounds the memo of a query, its keys counted once for the
family, and ``MAX_STAGE`` the working stage, picked or given.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from math import prod
from operator import lt
from typing import Sequence

import numpy as np

from . import schedule as geometry  # for GUARD, read at call time
from .errors import RangeError, ResourceError
from .scalars import FLOAT_EXACT, Scalar, Sqrt2, exact, sqrt2_floordiv, sqrt2_sign, sqrt2_sorted, to_float
from .schedule import Lattice, Schedule, difference, magnitude, within
from .stepfun import StepFunction, array_integrals, product_integral

STAGE_MARGIN = 4
MAX_STAGE = 64  # the deepest stage pick_stage looks at
# A batch of Correlator times on an int lattice is kept in NumPy from
# _ARRAY_MIN_TIMES times up (MCorrelator._arrays).  Its bookkeeping costs
# some 40-70 us whatever its size; measured on asym49 and staircase
# families of 2 pairs, the per-time loop is faster up to 24-32 times, the
# arrays 5% faster at 48 and 20% at 128 (the whole call).
_ARRAY_MIN_TIMES = 32


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


def pick_stage(schedule: Schedule, k: int, t_abs: Sequence, lattice: Lattice | None = None) -> list:
    """For each |t| of *t_abs*, the smallest N >= k with
    h_N >= STAGE_MARGIN * (h_k + |t|), up to MAX_STAGE.

    *t_abs* holds coordinates on *lattice*; scalars, with no lattice
    given, are first encoded on the smallest one that holds them.  The
    condition reads not u_N < |t| for the thresholds
    u_N = h_N / STAGE_MARGIN - h_k, which do not decrease with N.  Each
    call builds one table of them, in the lattice's terms, from stage k
    up to the stage of its largest |t|, and places every |t| in it by
    bisection, with no scalar arithmetic.  On an int lattice of scale D a
    threshold is the int floor(u_N D): for an int T, u_N < T/D exactly
    when floor(u_N D) < T.  On a pair lattice it is the integer form
    (P, Q, e) of u_N D = (P + Q sqrt 2)/e, and u_N < (a + b sqrt 2)/D is
    the sign of (a e - P) + (b e - Q) sqrt 2, as :func:`within` decides.
    The first time past MAX_STAGE raises, naming its |t|.

    *t_abs* may also be an int64 array of coordinates below 2**53 on an
    int lattice.  Then the stages are one ``np.searchsorted`` of the
    array in the table, an int64 array.  The thresholds are searched
    clipped to [-1, 2**53], which keeps the answer of u < T for every T
    in [0, 2**53)."""
    if lattice is None:
        t_abs = [exact(t) for t in t_abs]
        lattice = Lattice.holding(t_abs)
        t_abs = [lattice.encode(t) for t in t_abs]
    if len(t_abs) and k > MAX_STAGE:
        raise RangeError(f"the functions' stage {k} is past MAX_STAGE = {MAX_STAGE}: no working stage can be picked")
    if lattice.sqrt2:
        def below(u, x) -> bool:
            return sqrt2_sign(x[0] * u[2] - u[0], x[1] * u[2] - u[1]) > 0
    else:
        below = lt
    thresholds = []
    if len(t_abs):
        top = int(t_abs.max()) if type(t_abs) is np.ndarray else sqrt2_sorted(t_abs)[-1] if lattice.sqrt2 else max(t_abs)
        for n in range(k, MAX_STAGE + 1):
            u = schedule.height(n) / STAGE_MARGIN - schedule.height(k)
            p, q, e = (u.a, u.b, u.denominator) if type(u) is Sqrt2 else (u.numerator, 0, u.denominator)
            p, q = p * lattice.scale, q * lattice.scale
            thresholds.append((p, q, e) if lattice.sqrt2 else sqrt2_floordiv(p, q, e, 0) if q else p // e)
            if not below(thresholds[-1], top):
                break
    if type(t_abs) is np.ndarray:
        ns = k + np.searchsorted(np.array([min(max(u, -1), FLOAT_EXACT) for u in thresholds], dtype=np.int64), t_abs)
    elif lattice.sqrt2:
        ns = [k + bisect_left(thresholds, True, key=lambda u: not below(u, x)) for x in t_abs]
    else:
        ns = [k + bisect_left(thresholds, x) for x in t_abs]
    if len(t_abs) and below(thresholds[-1], top):  # the largest |t| is past MAX_STAGE: name the first such
        x = next(x for x, n in zip(t_abs, ns) if n > MAX_STAGE)
        raise RangeError(f"|t| = {to_float(lattice.decode(x), '|t|'):g} out of range: no stage up to {MAX_STAGE} is tall enough")
    return ns


class MCorrelator:
    """integral of prod_i f_i(T_{-t_i} x) dmu for each member (f_0, ...,
    f_{m-1}) of a family, via the m-fold offset recursion on the shifts
    t_i - t_0, i >= 1, memoized on one integer lattice.

    Each :meth:`at` call is one independent pass: it keeps nothing for a
    later call.  Its lattice is the smallest holding the members'
    breakpoints (``_lattice``, fixed at construction), the call's times
    and stages k..N, so the base case reads the members' grids on it (at
    m = 2 the times and the shifts -t have the same denominators).  B_n
    of a member is held in the call's level n, at the place of x, the
    coordinates of the shift tuple on that lattice (at m = 2, of the one
    shift), in the level's frontier.  The step is the schedule's, chosen
    once from m: :meth:`Schedule.overlaps` at m = 2, else
    :meth:`Schedule.tuple_overlaps`.  Either takes the shifts of a
    frontier and returns one (delta, multiplicity) sequence per shift, or,
    for an array step at m = 2, (counts, keys, index, mults).
    """

    def __init__(self, schedule: Schedule, family: Sequence[Sequence[StepFunction]]):
        family = list(family)
        if len({len(functions) for functions in family}) != 1 or len(family[0]) < 2:
            raise RangeError("a family needs one or more members, all of one arity m >= 2")
        if len({f.stage for functions in family for f in functions}) != 1:
            raise RangeError("all functions must live at a common stage (lift the shallower ones)")
        self.schedule = schedule
        self.family = family
        self.k = family[0][0].stage
        self._lattice = Lattice.holding((), *(f.lattice for functions in family for f in functions))
        self._norms = [prod(f.sup_norm for f in functions) for functions in family]  # of the bounds
        self._pair = len(family[0]) == 2
        self._step = schedule.overlaps if self._pair else schedule.tuple_overlaps

    def _correlation(self, shifts, t_abs, coarse: Lattice, stage: int | None) -> tuple:
        """w_N * B_N for each member at each query of a batch, at its shifts
        (one per function after the first), with the bound for times up to
        its |t| in *t_abs*; B_N is 0 when a shift is outside |x| < h_N.
        Shifts and |t| are coordinates on *coarse*, a lattice that holds
        the batch's times: lists, a tuple of shifts per query, or, for the
        array batch of :meth:`Correlator.sample` at m = 2, int64 arrays of
        the one shift and of |t|, below 2**53 on an int *coarse* of scale
        below 2**53.  Returns the values and the bounds, one row per
        member, in query order, and the working stages: arrays from
        :meth:`_arrays`, and lists of Python scalars from :meth:`_loop`,
        whose small batches would pay more for arrays than for the
        bookkeeping itself; :meth:`Correlator.sample` hands out arrays.

        Every working stage is picked on those coordinates before any step
        is taken.  The call's lattice also holds the members' breakpoints
        and stages k..N; the shifts are rescaled to it once, and one pass of
        :meth:`_B` on it computes every B_N the batch needs.  The bound's
        float |t| is read off the coordinates: no time is decoded.  An array
        batch stays in NumPy (:meth:`_arrays`) unless the call's lattice is
        a Q(sqrt 2) one or holds a shift at or past 2**53; that batch and a
        list batch take the per-time loop (:meth:`_loop`)."""
        sched = self.schedule
        batch = type(t_abs) is np.ndarray
        if stage is None:
            ns = pick_stage(sched, self.k, t_abs, coarse)
        elif stage < self.k:
            raise RangeError(f"stage {stage} is below the functions' stage {self.k}")
        elif stage > MAX_STAGE:
            raise RangeError(f"stage {stage} is past MAX_STAGE = {MAX_STAGE}")
        else:
            ns = np.full(len(t_abs), stage) if batch else [stage] * len(shifts)
        if not len(ns):
            return np.empty((len(self.family), 0), complex), np.empty((len(self.family), 0)), np.empty(0, np.int64)
        top = int(ns.max()) if batch else max(ns)
        lattice = Lattice.holding((), coarse, self._lattice, *(sched.stage(m).lattice for m in range(self.k, top + 1)))
        ratio = lattice.scale // coarse.scale
        if batch and (lattice.sqrt2 or int(t_abs.max()) * ratio >= FLOAT_EXACT):
            batch, shifts, t_abs, ns = False, [(x,) for x in shifts.tolist()], t_abs.tolist(), ns.tolist()
        if batch:
            return self._arrays(shifts * ratio, t_abs, ns, coarse, lattice)
        return self._loop(shifts, t_abs, ns, coarse, lattice)

    def _loop(self, shifts: list, t_abs: list, ns: list, coarse: Lattice, lattice: Lattice) -> tuple:
        """:meth:`_correlation` one time after another, on Python scalars:
        each shift tuple is rescaled to *lattice* and tested against h_N,
        each distinct key of a working stage is wanted once (its slot, its
        place in order among them, kept per time), and each value and
        bound is a Python product, in one list per member."""
        sched = self.schedule
        if lattice != coarse:
            shifts = [tuple(lattice.recode(x, coarse) for x in query) for query in shifts]
        heights = {n: lattice.encode(sched.stage(n).h) for n in set(ns)}
        slots, wanted = [], defaultdict(dict)  # wanted: n -> {key of B_n: its slot}, then the slots' places
        for n, xs in zip(ns, shifts):
            slot = None
            if all(within(x, heights[n]) for x in xs):
                keys = wanted[n]
                slot = keys.setdefault(xs[0] if self._pair else xs, len(keys))
            slots.append(slot)
        levels, working = self._B(wanted, lattice), {}  # working: n -> (w_N, B_N per member as a list)
        values, bounds = [[] for _ in self.family], [[] for _ in self.family]
        for n, slot, t in zip(ns, slots, t_abs):
            if n not in working:
                level = [_python(vs) for vs in levels[n][1]] if n in wanted else [None] * len(values)
                working[n] = to_float(sched.width(n), f"w_{n}"), level
            (w_n, level), t = working[n], coarse.to_float(t, "|t|")
            place = None if slot is None else wanted[n][slot]
            for vs, norm, out, bound in zip(level, self._norms, values, bounds):
                out.append((0j if place is None else vs[place]) * w_n)
                bound.append(self._bound(norm, t, w_n))
        return values, bounds, ns

    def _arrays(self, shifts: np.ndarray, t_abs: np.ndarray, ns: np.ndarray, coarse: Lattice, lattice: Lattice) -> tuple:
        """:meth:`_correlation` of an array batch in NumPy, with the loop's
        values bit for bit: |x| < h_N is one comparison, against each
        time's h_N on *lattice* (searched clipped to 2**53); each working
        stage wants the distinct keys of its times (``np.unique``), and
        each time's value is gathered from its level by the key's place,
        found through the inverse.  NumPy multiplies a complex by a float
        as Python does, as (a + b i)(w + 0 i); |t| is T/D, a float64
        division of two exact floats, so correctly rounded as the loop's.
        Each w_N is checked, in the order the working stages first occur,
        after the pass of :meth:`_B`."""
        sched = self.schedule
        low, high = int(ns.min()), int(ns.max())
        heights = np.array([min(lattice.encode(sched.stage(n).h), FLOAT_EXACT) for n in range(low, high + 1)], dtype=np.int64)
        inside = np.abs(shifts) < heights[ns - low]
        wanted, slots, first = {}, {}, {}  # slots: n -> (the times of stage n inside, their slots among its keys)
        for n in [low] if low == high else np.unique(ns).tolist():
            times = np.flatnonzero(ns == n)
            first[n] = times[0]
            times = times[inside[times]]
            if len(times):
                wanted[n], inverse = np.unique(shifts[times], return_inverse=True)
                slots[n] = times, inverse
        levels = self._B(wanted, lattice)
        raw = np.zeros((len(self.family), len(ns)), complex)
        for n, (times, inverse) in slots.items():
            places = np.asarray(wanted[n])[inverse]
            for out, vs in zip(raw, levels[n][1]):
                out[times] = np.asarray(vs, dtype=complex)[places]
        widths = np.zeros(high - low + 1)
        for n in sorted(first, key=first.get):
            widths[n - low] = to_float(sched.width(n), f"w_{n}")
        w, t = widths[ns - low], t_abs / coarse.scale
        return raw * w, self._bound(np.array(self._norms)[:, None], t, w), ns

    def _B(self, wanted: dict, lattice: Lattice) -> dict:
        """The levels of a call, n -> (frontier, values): the distinct keys
        of stage n on *lattice* and, per member, B_n at each of them in
        frontier order, from one level-synchronous pass.  wanted[n] holds
        the distinct keys of the working stage n (a dict's keys or an int64
        array), and is replaced by their places in the frontier, in the
        same order (a list or an int64 array).  Top down, from the highest
        working stage to k, each stage's frontier is the distinct deltas of
        the step above (an array step's keys as they are) followed by the
        wanted keys not among them (:func:`_merged`), and its step is taken
        at once for the whole frontier, and stage k's base case too, for
        the whole family (:func:`_base`), one array or list of values per
        member.  Bottom up, each member sums each new value over its step
        in the step's order, as a depth-first recursion would: by
        :func:`_row_sums` for an array step, by :func:`_list_sums` for a
        list step."""
        levels, guard = {}, geometry.GUARD
        if not wanted:
            return levels
        n, lowest = max(wanted), min(wanted)
        size, steps, xs = 0, [], []
        while True:
            if n in wanted:
                xs, wanted[n] = _merged(xs, wanted[n])
            if len(xs):
                size += len(xs)
                if size > guard:
                    raise ResourceError(f"memo blowup near stage {n}: more than {guard} distinct shifts")
                if n == self.k:  # the base case, at the shift tuples (0, x)
                    if type(xs) is np.ndarray:
                        rows = np.stack((np.zeros_like(xs), xs), axis=1)
                    else:
                        zero = (0, 0) if lattice.sqrt2 else 0
                        rows = [(zero, y) for y in xs] if self._pair else [(zero, *y) for y in xs]
                    levels[n] = (xs, _base(self.family, rows, lattice))
                    break
                step = self._step(n - 1, xs, lattice)
                steps.append((n, xs, step))
                # an array step (counts, keys, index, mults) lists its distinct deltas
                xs = step[1] if type(step) is tuple else list({d for pairs in step for d, _ in pairs})
            elif n <= lowest:
                break
            n -= 1
        empty = ([], [[]] * len(self.family))
        while steps:  # each step is let go once its sums are stored
            n, xs, step = steps.pop()
            below, values = levels.get(n - 1, empty)
            if type(step) is tuple:
                levels[n] = (xs, [_row_sums(step, vs) for vs in values])
            else:
                levels[n] = (xs, [_list_sums(step, dict(zip(below, _python(vs)))) for vs in values])
        return levels

    def _bound(self, norm: float, t: float, w: float) -> float:
        return 2.0 * norm * t * w * len(self.family[0])

    def at(self, times: Sequence[Sequence[Scalar]], stage: int | None = None) -> list:
        """One list per member of one :class:`CorrelationResult` per time
        tuple of *times* (one time per function), in order, from one pass
        over the batch; at stage *stage*, or each at the stage
        :func:`pick_stage` gives it.  Each time is made exact once and
        encoded once, on the lattice of the batch's times and the members'
        breakpoints, and the shifts and |t| are read off its coordinates:
        the differences from the first time's and the largest magnitude."""
        queries = []
        for query in times:
            if len(query) != len(self.family[0]):
                raise RangeError("need one time per function")
            queries.append([exact(t) for t in query])
        lattice = Lattice.holding(chain.from_iterable(queries), self._lattice)
        largest = (lambda xs: sqrt2_sorted(xs)[-1]) if lattice.sqrt2 else max
        shifts, t_abs = [], []
        for query in queries:
            xs = [lattice.encode(t) for t in query]
            shifts.append(tuple(difference(x, xs[0]) for x in xs[1:]))
            t_abs.append(largest(map(magnitude, xs)))
        return _results(*self._correlation(shifts, t_abs, lattice, stage))


def _merged(xs, keys) -> tuple:
    """The frontier *xs* followed by the distinct *keys* (a dict's keys, a
    list or an int64 array) not in it, and each key's place in it, in the
    keys' order.  An array frontier (an array step's keys, increasing)
    stays an int64 array, in which ``searchsorted`` finds the keys, and
    the places are an int64 array; a list stays a list of Python ints,
    the places a list, and array keys joining it come as Python ints."""
    if type(xs) is np.ndarray:
        keys = keys if type(keys) is np.ndarray else np.fromiter(keys, np.int64, len(keys))
        at = np.searchsorted(xs, keys)
        new = at == len(xs)
        new[~new] = xs[at[~new]] != keys[~new]
        at[new] = np.arange(len(xs), len(xs) + np.count_nonzero(new))
        return np.concatenate((xs, keys[new])), at
    places = dict(zip(xs, range(len(xs))))
    at = [places.setdefault(key, len(places)) for key in _python(keys)]
    return list(places), at


def _base(family: list, rows, lattice: Lattice) -> list:
    """B_k of each member of *family* at the shift tuples *rows*, a list
    or, for an array frontier, an int64 array stacked in NumPy, as one
    array or list of values per member: one array pass for the whole
    family where :func:`array_integrals` takes them, and
    :func:`product_integral` per member and tuple, on Python ints,
    otherwise."""
    values = array_integrals(family, rows, lattice)
    if values is None:
        rows = _python(rows)
        values = [[product_integral(functions, row, lattice) for row in rows] for functions in family]
    return values


def _python(values):
    """*values* as a list of Python scalars: an array's ``tolist``."""
    return values.tolist() if type(values) is np.ndarray else values


def _row_sums(step: tuple, below) -> np.ndarray:
    """The values of an array level: the terms mult * B(delta) of each
    shift, its row, gathered by the step's index from *below*, the values
    of the level below in frontier order, and summed in order from 0.0 by
    ``bincount``, the real and the imaginary parts apart, as
    :func:`_list_sums` adds them."""
    counts, _, index, mults = step
    terms = np.asarray(below, dtype=complex)[index]
    terms *= mults
    rows = np.repeat(np.arange(len(counts)), counts)
    sums = np.empty(len(counts), dtype=complex)
    sums.real = np.bincount(rows, terms.real, len(counts))
    sums.imag = np.bincount(rows, terms.imag, len(counts))
    return sums


def _list_sums(step: list, below: dict) -> list:
    """The values of a list level: each shift's terms mult * B(delta),
    read by key from *below*, added in the step's order from 0j."""
    values = []
    for pairs in step:
        v = 0j
        for d, mult in pairs:
            v += mult * below[d]
        values.append(v)
    return values


class Correlator(MCorrelator):
    """Koopman correlations <U_T(t) f, g> of a family of pairs (f, g) under
    one schedule: the m = 2 case on (f, conj g) at times (t, 0), with the
    shift memos of a query shared across its times."""

    def __init__(self, schedule: Schedule, pairs: Sequence[tuple]):
        super().__init__(schedule, [(f, g.conjugate()) for f, g in pairs])

    def _bound(self, norm: float, t: float, w: float) -> float:
        """The 2-point bound, half the m-point formula at m = 2."""
        return 2.0 * norm * t * w  # = 2.0 * ||f|| * ||g|| * t * w: doubling is exact

    def at(self, times: Sequence[Scalar], stage: int | None = None) -> list:
        """One list per pair of one :class:`CorrelationResult` per time t
        of *times*, in order, from one pass over the batch (see
        :meth:`MCorrelator.at`): each t is made exact once and encoded
        once, on the lattice of the batch's times and the members'
        breakpoints, and answered as by :meth:`sample`."""
        times = [exact(t) for t in times]
        lattice = Lattice.holding(times, self._lattice)
        return _results(*self._sampled([lattice.encode(t) for t in times], lattice, stage))

    def sample(self, coordinates: Sequence[int], scale: int, stage: int | None = None) -> tuple:
        """The correlations at the times T/scale, T in *coordinates* (ints),
        as arrays: the values and the bounds, one row per pair, in order,
        and the working stages.  A curve's grid i*p/q is handed over as its
        ints i*p on scale q, with no scalar built per time."""
        values, bounds, ns = self._sampled(coordinates, Lattice(scale, False), stage)
        return np.asarray(values, complex), np.asarray(bounds, float), np.asarray(ns, np.int64)

    def _sampled(self, xs: Sequence, lattice: Lattice, stage: int | None) -> tuple:
        """:meth:`MCorrelator._correlation` at the times of coordinates *xs*
        on *lattice*: shift -x and |t| = |x| each.  A batch of at least
        ``_ARRAY_MIN_TIMES`` ints on an int lattice, all below 2**53 and
        the scale too, goes in as int64 arrays; any other goes in as lists."""
        if (
            len(xs) >= _ARRAY_MIN_TIMES
            and not lattice.sqrt2
            and lattice.scale < FLOAT_EXACT
            and -FLOAT_EXACT < min(xs)
            and max(xs) < FLOAT_EXACT
        ):
            ts = np.array(xs, dtype=np.int64)
            return self._correlation(-ts, np.abs(ts), lattice, stage)
        zero = lattice.encode(0)
        return self._correlation([(difference(zero, x),) for x in xs], list(map(magnitude, xs)), lattice, stage)


def _results(values, bounds, ns) -> list:
    """The answer of :meth:`MCorrelator._correlation`, arrays or lists, as
    one list of :class:`CorrelationResult` per member, in Python scalars."""
    ns = _python(ns)
    return [
        [CorrelationResult(value=v, error_bound=b, stage_used=n) for v, b, n in zip(vs, bs, ns)]
        for vs, bs in zip(_python(values), _python(bounds))
    ]


def correlate(
    schedule: Schedule, f: StepFunction, g: StepFunction, t: Scalar, stage: int | None = None
) -> CorrelationResult:
    """<U_T(t) f, g> at the one time *t*."""
    return Correlator(schedule, [(f, g)]).at([t], stage=stage)[0][0]


def inner_product(schedule: Schedule, f: StepFunction, g: StepFunction) -> complex:
    """<f, g> at the common stage, weight w_k: the base case at shift 0.
    <f, f> of a real-valued f (a level set, a comb) is the base case of
    [f, f] on f's own lattice, bit for bit the same value, with no
    conjugate copy of f to build."""
    w = to_float(schedule.width(f.stage), f"w_{f.stage}")
    if g is f and not any(complex(v).imag for v in f.values):
        zero = f.lattice.encode(0)
        return complex(product_integral([f, f], (zero, zero), f.lattice)) * w
    return complex(product_integral([f, g.conjugate()], (0, 0))) * w


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
) -> WeakLimitReport:
    """Residuals r_j = max over (f, g) of
    |<U_T(t_j) f, g> - alpha <f, g> - beta <U_T(s) f, g>|.

    Monotonicity is not asserted; the report only flags whether the final
    residual is below the caller's threshold.
    """
    # one batch for the family: the reference time s (when beta is set), then the times
    answers = Correlator(schedule, test_family).at([target.s, *times] if target.beta else times)
    base = []
    for (f, g), results in zip(test_family, answers):
        ref = results.pop(0) if target.beta else None
        base.append((inner_product(schedule, f, g), ref, results))
    residuals, bounds = [], []
    for j in range(len(times)):
        worst = 0.0
        bnd = 0.0
        for ip, ref, results in base:
            res = results[j]
            predicted = complex(target.alpha) * ip
            b = res.error_bound
            if ref is not None:
                predicted += complex(target.beta) * ref.value
                b += abs(complex(target.beta)) * ref.error_bound
            # a NaN residual or bound is kept: max() would drop it
            worst = _max_keeping_nan(worst, abs(res.value - predicted))
            bnd = _max_keeping_nan(bnd, b)
        residuals.append(worst)
        bounds.append(bnd)
    final_below = None if threshold is None else residuals[-1] < threshold
    return WeakLimitReport(list(times), residuals, bounds, threshold, final_below)


def _max_keeping_nan(a: float, b: float) -> float:
    return b if b > a or b != b else a


def perturbation_bound(magnitudes: Sequence, bounds: Sequence) -> float:
    """How far a product of factors v_i can move when each may be off by e_i.

    The worst case is prod(|v| + e) - prod(|v|), summed here as the
    telescoping series

        sum_i prod(|v_1|, ..., |v_{i-1}|, e_i, |v_{i+1}| + e_{i+1}, ...),

    in one backward pass, O(n): the sum over factors i.. is
    e_i * tail + |v_i| * (the sum over factors i+1..), with tail the
    product of |v_j| + e_j for j > i.  A single factor gives exactly e_1.
    """
    total, tail = 0, 1
    for m, e in zip(reversed(magnitudes), reversed(bounds)):
        total = e * tail + m * total
        tail *= m + e
    return total


@dataclass
class FockComponent:
    """Shifts s_1 < ... < s_k with multiplicities n_l and test vectors f_l;
    the diagonal matrix coefficient of the corresponding symmetric-tensor
    block at time t is the product of the factors <U_T(s_l t) f_l, f_l>,
    each raised to n_l."""

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
