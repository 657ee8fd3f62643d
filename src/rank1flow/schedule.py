"""Cutting-and-stacking schedules and exact tower geometry.

A schedule assigns to every stage n >= 1 a cut number r_n > 1, the spacer
heights s_n(1) .. s_n(r_n) and a bottom spacer (0 except on symmetrized
towers).  Stage n of the construction is a tower of height h_n and width
w_n; it is cut into r_n columns of width w_n / r_n, a spacer of height
s_n(j) is put on top of column j, and the columns are stacked bottom to
top.  Copy j of the stage-n tower therefore sits inside the stage-(n+1)
tower at offset

    o_1 = bottom spacer,
    o_{j+1} = o_j + h_n + s_n(j),

and h_{n+1} = o_{r_n} + h_n + s_n(r_n).

Exact geometry is built, compared and enumerated on an integer lattice: a
:class:`Lattice` of scale D stores x as the integer x*D (rational data)
or, over Q(sqrt 2), as the integer pair (a, b) with x = (a + b*sqrt 2)/D.
:meth:`Lattice.holding` is the one rule that picks a lattice: the
smallest one holding some exact scalars.  Each stage is built on its own
lattice, D_n = lcm of the denominators of h_n, the bottom spacer and
s_n(1) .. s_n(r_n - 1), the smallest scale holding h_n and every
offset: each distinct spacer object is coerced and encoded once and the
offsets accumulated as ints or int pairs, or, equally spaced (below),
kept as o_1 and p.  The scalar offsets are decoded from there on first
use; h_{n+1} and the spacer mass are exact scalar sums of the last
offset, h_n and s_n(r_n).
:meth:`TowerStage.on_lattice` rescales a stage to a finer lattice: at
m = 1 on a lattice of its own kind the view is the stage's own grid,
otherwise it is rebuilt on each call.  The view, a
:class:`LatticeStage`, holds the exact geometry only, and each route
builds what else it needs when it runs.  :func:`copy_windows`
sweeps a view with plain integer arithmetic, copy by copy, and
:func:`overlap_pairs` counts the deltas of the windows.  Pairs are
compared on float values where these clear their rounding bound, and
by :func:`sqrt2_sign` where they do not; both steps build the offsets'
floats once per batch of shifts.  Scalars come back only at the
boundary, via :meth:`Lattice.decode`.

A stage whose spacers s_n(1) .. s_n(r_n - 1) encode to one value (flat
stages, a constant spacer, zero spacers below the top) has equally spaced
offsets, o_{j+1} - o_j = p = h_n + s.  Its :class:`LatticeStage`, on
its own lattice and in every view, holds o_1 and p alone (``first`` and
``period``): a view rescales the two in O(1), the routes that run on
the stage read r_n, p and h_n only, and the last offset is
o_1 + (r_n - 1) p (:attr:`LatticeStage.last`).  Only the decoded
:attr:`TowerStage.offsets` list the copies, on first use.  Where the r spacers are one object, as
the builders make flat and constant stages, one identity check in C
finds it so, and the build visits no copy in Python.
Its overlaps are then the deltas x + k p, each realized by the r_n - |k|
pairs with j' - j = k, and since p >= h_n at most two k keep
|x + k p| < h_n.  :func:`overlap_pairs` answers such a stage in closed
form, O(1) per shift whatever r_n: two floor divisions, on ints or, on
(a, b) pairs, by the exact integer floor of
:func:`~rank1flow.scalars.sqrt2_floordiv`.

The engine takes the step of a stage for a whole level of shifts at
once: :meth:`Schedule.overlaps` at m = 2, :meth:`Schedule.tuple_overlaps`
on shift tuples at m >= 3.  At m = 2, :func:`overlap_batch` applies the
batch rule.  A batch of at least ``_NUMPY_MIN_WORK`` (shift, copy) pairs
on int offsets whose values fit int64 is an array step for all its
shifts at once: (counts, keys, index, mults), with the distinct deltas
as keys, an int64 array that the engine takes as its next frontier as
it is, and each delta as its index among them.  A stage takes its
difference table, the distinct o_j' - o_j with their pair counts, of
which each shift reads one window found by ``searchsorted``: a table in
closed form on an equally spaced stage (k p, r - |k| times, |k| < r),
and when r is at most the number of shifts and r**2 at most ``GUARD``
one built per step (r**2 work).  Any other stage takes one NumPy sweep
(the offsets as one int64 array per batch, ``searchsorted`` for every
(shift, copy) window, one sort for every delta; shifts times r work),
where its sort keys, up to shifts times 2 h_n, fit int64.
The keys are counted where the deltas span no more values than there
are deltas, and sorted by ``np.unique`` elsewhere.  Any other batch (a
smaller one, values past int64, (a, b) pairs) is a list step: one
(delta, multiplicity) list per shift, from the closed form or the
Python sweep, on Python ints.  Either gives each shift's deltas in
increasing order.  At m >= 3,
:func:`tuple_overlaps` reaches each distinct coordinate of a batch's
shift tuples once, since the tuples share many.  An equally spaced stage
answers in closed form: each coordinate's k come from the same two
floors, the delta vectors of a tuple are the product of its
coordinates' ranges, and each is realized by the copies j0 that keep
every j0 + k_i among the r copies, r - max(0, k...) + min(0, k...) of
them, listed in the order a sweep meets them first.  On other stages
each coordinate's copy windows are swept once, and each tuple groups
the copy tuples of its coordinates' windows by delta vector.  The
schedule keeps no step, and what a step reaches lives for that call; a
correlator takes each step for its whole family.

Two module constants bound the work, with no parameter to set them:
``GUARD`` (the deltas per shift of every m = 2 step, the r**2 entries of
a difference table, the delta vectors of an m-tuple step, in
:mod:`rank1flow.correlate` the memo of a query, and in
:mod:`rank1flow.spectral` the sample times of a curve) and
``DIGIT_BUDGET`` (the bits of a stage height).  Each check reads its
constant when it runs, so patching ``schedule.GUARD`` moves every GUARD
limit at once.
"""

from __future__ import annotations

from collections import _count_elements
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, product, repeat
from math import inf, lcm
from operator import is_, itemgetter
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, ResourceError
from .scalars import FLOAT_BITS, MODES, SQRT2_FLOAT, Scalar, Sqrt2, coerce, exact, sqrt2_float, sqrt2_floordiv, sqrt2_sign, sqrt2_sorted, to_float

GUARD = 10**6  # memo entries per query, delta vectors per m-tuple step, deltas per shift, difference-table entries, curve samples
DIGIT_BUDGET = 200_000  # bits in each component of a stage height on its own lattice
# A batch of shifts on int offsets is an array step when it holds at
# least _NUMPY_MIN_WORK (shift, copy) pairs.  NumPy costs some 55-80 us
# per batch whatever its size; measured on stages with r = 4, 16 and 64,
# the Python loop is 1.6-4x faster at 16-32 pairs, NumPy 1.0-1.6x faster
# at 64 and 2.6-3.6x at 256.  The sweep takes _CHUNK pairs at a time, so
# that its int64 arrays stay at 64 KB.  Lattice values below
# _INT64_SAFE = 2**61 keep every sum of three inside int64; larger ones
# take the list step, on Python ints.
_NUMPY_MIN_WORK = 64
_CHUNK = 8192
_INT64_SAFE = 2**61


# ---------------------------------------------------------------------------
# the integer lattice
# ---------------------------------------------------------------------------


class Lattice(NamedTuple):
    """Coordinates on (1/scale) Z, or on (1/scale) Z[sqrt 2] as int pairs.

    An exact scalar x whose ``denominator`` divides ``scale`` is stored as
    the int x*scale, or, when ``sqrt2`` is set, as the pair (a, b) with
    x = (a + b*sqrt 2)/scale: a :class:`Sqrt2` holds such a pair over its
    own ``denominator``, and encoding rescales it.  Ints and tuples of
    ints hash and compare in C, so memo keys on the lattice stay cheap.
    """

    scale: int
    sqrt2: bool

    @classmethod
    def holding(cls, scalars: Iterable[Scalar], *lattices: Lattice) -> Lattice:
        """The smallest lattice that holds every exact scalar of *scalars*
        and refines each of *lattices*: its scale is the lcm of theirs and
        of the scalars' denominators, over Q(sqrt 2) when one of them is."""
        scale, sqrt2 = 1, False
        for lattice in lattices:
            scale, sqrt2 = lcm(scale, lattice.scale), sqrt2 or lattice.sqrt2
        for x in scalars:
            scale, sqrt2 = lcm(scale, x.denominator), sqrt2 or isinstance(x, Sqrt2)
        return cls(scale, sqrt2)

    def encode(self, x: Scalar):
        m = self.scale // x.denominator
        if isinstance(x, Sqrt2):
            return (x.a * m, x.b * m)
        return (x.numerator * m, 0) if self.sqrt2 else x.numerator * m

    def decode(self, v) -> Scalar:
        if self.sqrt2:
            return Sqrt2.from_ints(v[0], v[1], self.scale)
        return Fraction(v, self.scale)

    def recode(self, v, coarser: Lattice):
        """The coordinates *v* on *coarser*, a lattice this one refines, in
        this lattice's coordinates: rescaled by the ratio of the scales, and
        an int made a pair (v, 0) on Q(sqrt 2)."""
        v = rescaled(v, self.scale // coarser.scale)
        return (v, 0) if self.sqrt2 and type(v) is int else v

    def to_float(self, v, what: str) -> float:
        """The float of the value at coordinates *v*, bit for bit that of
        its scalar: an int T is T/D, correctly rounded as ``float(Fraction)``
        is, and a pair (a, b) is ``sqrt2_float(a, b, D)``, as ``float(Sqrt2)``
        takes it (D the scale).  A value past float range raises the
        RangeError of :func:`to_float` for its decoded scalar."""
        try:
            return sqrt2_float(v[0], v[1], self.scale) if self.sqrt2 else v / self.scale
        except OverflowError:
            return to_float(self.decode(v), what)


class LatticeStage(NamedTuple):
    """Height and offsets of stage n in the coordinates of one lattice: the
    offsets o_1 .. o_r as a list, or, where they are equally spaced, o_1
    and the period p alone, o_j = o_1 + (j - 1) p, with no per-copy list."""

    n: int
    r: int
    h: object  # int or (a, b)
    offsets: Optional[list] = None  # o_1 .. o_r, unless equally spaced
    first: object = None  # o_1, where equally spaced
    period: object = None  # o_{j+1} - o_j, where equally spaced

    @property
    def last(self):
        """o_r, the last offset."""
        return self.offsets[-1] if self.period is None else stepped(self.first, self.period, self.r - 1)


def rescaled(x, m: int):
    """Lattice coordinates, an int or an (a, b) pair, on an m times finer scale."""
    return x * m if type(x) is int else (x[0] * m, x[1] * m)


def stepped(x, p, k: int):
    """x + k p, for lattice coordinates (a pair's component may stand
    still or fall)."""
    return x + k * p if type(x) is int else (x[0] + k * p[0], x[1] + k * p[1])


def difference(x, y):
    """x - y, for lattice coordinates."""
    return x - y if type(x) is int else (x[0] - y[0], x[1] - y[1])


def magnitude(x):
    """|x|, for lattice coordinates."""
    if type(x) is int:
        return abs(x)
    return x if sqrt2_sign(*x) >= 0 else (-x[0], -x[1])


# ---------------------------------------------------------------------------
# schedules and stages
# ---------------------------------------------------------------------------


@dataclass
class TowerStage:
    """Exact geometry of stage n, plus the cut data used to build n+1.

    The height and offsets are stored on the stage's own lattice, the
    smallest that holds them, and :attr:`offsets` are decoded from there
    on first use.  :attr:`h_next` = o_{n,r_n} + h_n + s_n(r_n) and
    :attr:`spacer_mass_added` are exact scalar sums, and :attr:`measure`
    is h_n w_n, computed when read; the stage keeps its geometry only.
    """

    n: int
    h: Scalar  # height h_n
    w: Scalar  # width w_n
    r: int  # cut number r_n
    spacers: list  # s_n(1) .. s_n(r_n)
    bottom: Scalar  # bottom spacer (0 unless symmetrized)
    lattice: Lattice  # smallest lattice holding h and every offset
    grid: LatticeStage  # h and o_{n,1} .. o_{n,r_n} on that lattice

    @property
    def tower_measure(self):
        """mu(X_n) = h_n w_n: mu(X_1) = h_1 w_1, and stage n adds the spacer
        mass w_{n+1} (h_{n+1} - r h_n) = h_{n+1} w_{n+1} - h_n w_n."""
        return self.h * self.w

    measure = tower_measure

    @property
    def denominator(self) -> int:
        return self.lattice.scale

    @cached_property
    def offsets(self) -> list:
        """o_{n,1} .. o_{n,r_n}; on an equally spaced stage o_1 + j p."""
        grid, decode = self.grid, self.lattice.decode
        if grid.period is None:
            return list(map(decode, grid.offsets))
        return [decode(stepped(grid.first, grid.period, j)) for j in range(self.r)]

    @cached_property
    def h_next(self):
        return self.lattice.decode(self.grid.last) + self.h + self.spacers[-1]

    @property
    def w_next(self):
        return self.w / self.r

    @cached_property
    def spacer_mass_added(self):
        # bottom + s(1) + ... + s(r) = h_{n+1} - r*h_n
        return self.w_next * (self.h_next - self.r * self.h)

    def on_lattice(self, lattice: Lattice) -> LatticeStage:
        """This stage in the coordinates of *lattice*, whose scale must be a
        multiple of :attr:`denominator`; an equally spaced stage's view is
        m o_1 and m p, in O(1)."""
        m, rest = divmod(lattice.scale, self.denominator)
        if rest:
            raise ValueError(f"lattice scale {lattice.scale} is not a multiple of {self.denominator}")
        grid = self.grid
        widen = lattice.sqrt2 and type(grid.h) is int  # an int stage on Q(sqrt 2): (o, 0) pairs
        if m == 1 and not widen:
            return grid
        coarse = self.lattice
        h = lattice.recode(grid.h, coarse)
        if grid.period is not None:
            first, period = lattice.recode(grid.first, coarse), lattice.recode(grid.period, coarse)
            return LatticeStage(self.n, self.r, h, first=first, period=period)
        if widen:
            offsets = [(o * m, 0) for o in grid.offsets]
        elif type(h) is tuple:
            offsets = [(a * m, b * m) for a, b in grid.offsets]
        else:
            offsets = [o * m for o in grid.offsets]
        return LatticeStage(self.n, self.r, h, offsets)


class Schedule:
    """A deterministic generator n -> (r_n, spacers_n, bottom_n) plus base data.

    ``params(n, h_n, w_n)`` returns ``(r, spacers)`` or ``(r, spacers,
    bottom)``: the cut number, the r spacer heights s_n(1) .. s_n(r) as a
    sequence, and the bottom spacer (default 0).  It sees the geometry
    built so far, so spacers may depend on it; stages are computed in
    order and cached, so the callback sees a consistent, reproducible
    history.  A value that repeats should be one repeated object: each
    object is coerced and encoded once, and a stage whose r spacers are
    one object (``[s] * r``) is built with no Python step per copy, its
    offsets one progression kept as o_1 and p.  Equal but distinct
    objects give the same stage, at a cost per copy.
    """

    def __init__(
        self,
        params: Callable[[int, Scalar, Scalar], tuple],
        h1: Scalar = 1,
        w1: Scalar = 1,
        mode: str = "rational",
        name: str = "custom",
        meta: Optional[dict] = None,
    ):
        if mode not in MODES:
            raise ConfigurationError(f"unknown scalar mode {mode!r}; choose from {list(MODES)}")
        self._params = params
        self.mode = mode
        self.name = name
        self.meta = meta if meta is not None else {}
        self.h1 = coerce(h1, mode)
        self.w1 = coerce(w1, mode)
        if not (self.h1 > 0 and self.w1 > 0):
            raise ConfigurationError(f"h1 = {h1!r} and w1 = {w1!r} must be positive")
        self._stages: list[TowerStage] = []

    # -- stage computation ----------------------------------------------

    def stage(self, n: int) -> TowerStage:
        if n < 1:
            raise ConfigurationError("stage index must be >= 1")
        while len(self._stages) < n:
            self._build_next()
        return self._stages[n - 1]

    def _build_next(self):
        m = len(self._stages) + 1
        if m == 1:
            h, w = self.h1, self.w1
        else:
            prev = self._stages[-1]
            h, w = prev.h_next, prev.w_next
        self._check_budget(m, h)
        r, values, *bottom = self._params(m, h, w)
        if r <= 1:
            raise ConfigurationError(f"r_{m} = {r}; cut numbers must exceed 1")
        if len(values) != r:
            raise ConfigurationError(f"stage {m} has {len(values)} spacers, need r_{m} = {r}")
        mode, first = self.mode, next(iter(values))
        if all(map(is_, values, repeat(first))):  # one object, as [s] * r: no copy is visited
            ids, scalars = [0] * r, {0: coerce(first, mode)}
            spacers = [scalars[0]] * r
        else:  # each distinct object coerced once, in first-seen order
            ids = list(map(id, values))
            scalars = {i: coerce(v, mode) for i, v in dict(zip(ids, values)).items()}
            spacers = list(map(scalars.__getitem__, ids))
        bottom = coerce(bottom[0] if bottom else 0, mode)
        # s(1) .. s(r-1) step the offsets; s(r) enters only h_{n+1}, so an
        # object seen only there, the last one seen, is left out
        distinct = list(scalars)[: -1 if ids.count(ids[-1]) == 1 else None]
        lattice = Lattice.holding([h, bottom, *map(scalars.__getitem__, distinct)])
        encoded = {i: lattice.encode(scalars[i]) for i in distinct}  # each distinct object encoded once
        steps = set(encoded.values())
        sqrt2 = lattice.sqrt2
        H, B = lattice.encode(h), lattice.encode(bottom)
        negative = (lambda x: sqrt2_sign(*x) < 0) if sqrt2 else (lambda x: x < 0)
        if any(map(negative, steps)) or spacers[-1] < 0:
            raise ConfigurationError(f"negative spacer at stage {m}")
        if negative(B):
            raise ConfigurationError(f"negative bottom spacer at stage {m}")
        if len(steps) == 1:  # equally spaced offsets, o_{j+1} - o_j = h + s: o_1 and p
            (S,) = steps
            period = (H[0] + S[0], H[1] + S[1]) if sqrt2 else H + S
            grid = LatticeStage(m, r, H, first=B, period=period)
        elif sqrt2:  # o_{j+1} = o_j + h + s(j), component by component
            rises = {i: (H[0] + a, H[1] + b) for i, (a, b) in encoded.items()}
            columns = zip(*map(rises.__getitem__, ids[:-1]))
            grid = LatticeStage(m, r, H, list(zip(*(accumulate(c, initial=b) for c, b in zip(columns, B)))))
        else:
            rises = {i: H + s for i, s in encoded.items()}
            grid = LatticeStage(m, r, H, list(accumulate(map(rises.__getitem__, ids[:-1]), initial=B)))
        self._stages.append(TowerStage(m, h, w, r, spacers, bottom, lattice, grid))

    def _check_budget(self, n: int, h):
        """The digit budget: every component of h_n on its own lattice
        (its numerator, or both integers of (a + b*sqrt 2)/D) must fit."""
        a, b = (h.a, h.b) if isinstance(h, Sqrt2) else (h.numerator, 0)
        bits = max(a.bit_length(), b.bit_length())
        if bits > DIGIT_BUDGET:
            raise ResourceError(
                f"digit budget exceeded at stage {n}: the height needs {bits} bits, "
                f"more than the budget of {DIGIT_BUDGET} bits"
            )

    # -- convenience -----------------------------------------------------

    def overlaps(self, n: int, shifts: list, lattice: Lattice):
        """:func:`overlap_batch` for stage n at *shifts*, with the shifts
        and the deltas in the coordinates of *lattice*."""
        return overlap_batch(self.stage(n).on_lattice(lattice), shifts)

    def tuple_overlaps(self, n: int, shifts: list, lattice: Lattice) -> list:
        """:func:`tuple_overlaps` for stage n at each shift tuple of *shifts*."""
        return tuple_overlaps(self.stage(n).on_lattice(lattice), shifts)

    def height(self, n: int):
        return self.stage(n).h

    def width(self, n: int):
        return self.stage(n).w


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass
class FinitenessVerdict:
    partial_sum: Scalar
    partial_sums: list
    horizon: int


def finiteness_test(schedule: Schedule, horizon: int) -> FinitenessVerdict:
    """Partial sums of the finiteness criterion series
    sum_n x_n, x_n = h_n^{-1} r_n^{-1} sum_j s_n(j).

    x_n is the spacer mass stage n adds over the measure of tower n, so
    mu(X_{N+1}) = mu(X_1) * prod_{n <= N} (1 + x_n): the measure is finite
    exactly when the series converges, and a finite horizon decides
    neither.
    """
    if horizon < 1:
        raise ConfigurationError("horizon must be >= 1")
    total: Scalar = 0
    sums = []
    for n in range(1, horizon + 1):
        st = schedule.stage(n)
        total = total + st.spacer_mass_added / st.tower_measure
        sums.append(total)
    return FinitenessVerdict(partial_sum=total, partial_sums=sums, horizon=horizon)


def overlap_pairs(stage, shift, floats=None) -> list:
    """All distinct values delta = shift + o_{j'} - o_j with |delta| < h_n,
    each with the number of (j, j') pairs realizing it, in increasing order
    of delta.

    *stage* is a :class:`TowerStage` with a scalar shift, or a
    :class:`LatticeStage` with the shift in the same lattice coordinates
    (and, on (a, b) pairs, optionally the :func:`_pair_floats` of its
    offsets as *floats*); the deltas come back in the coordinates that
    went in.  A scalar query runs on the smallest lattice holding the stage
    and the shift.
    """
    if isinstance(stage, LatticeStage):
        return _lattice_overlaps(stage, shift, floats)
    shift = exact(shift)
    lattice = Lattice.holding([shift], stage.lattice)
    pairs = _lattice_overlaps(stage.on_lattice(lattice), lattice.encode(shift))
    return [(lattice.decode(delta), mult) for delta, mult in pairs]


def overlap_batch(stage: LatticeStage, shifts: list):
    """The m = 2 step of a lattice stage at *shifts*, a list or an int64
    array (an array step's keys): the :func:`overlap_pairs` of each
    shift, as an array step or a list step.

    The batch rule: a batch of at least ``_NUMPY_MIN_WORK`` (shift, copy)
    pairs on int offsets whose values fit int64 (:func:`_fits_int64`) is
    an array step, all shifts at once: (counts, keys, index, mults), in
    which shift i owns the next counts[i] entries of the int64 arrays
    index and mults, each delta given by its index into keys, the
    distinct deltas as an increasing int64 array.  It comes from the
    difference table (:func:`_table_batch`): a table in closed form on an
    equally spaced stage, and on others when r <= len(shifts) and
    r**2 <= ``GUARD``, the table's r**2 work being no more than the
    sweep's len(shifts) * r; from the NumPy sweep (:func:`_sweep_batch`)
    otherwise, where its sort keys fit int64 (len(shifts) * h below
    ``_INT64_SAFE``).  Any other batch is a list step, one (delta,
    multiplicity) list per shift: the closed form or the Python sweep,
    shift by shift, on Python ints (an array of shifts is turned into
    them once), with the float offsets of (a, b) pairs built once for
    the batch.  Both give each shift's deltas in increasing order.
    """
    r = stage.r
    if len(shifts) * r >= _NUMPY_MIN_WORK and _fits_int64(stage, shifts):
        if stage.period is not None or (r <= len(shifts) and r * r <= GUARD):
            return _table_batch(stage, shifts)
        if len(shifts) * stage.h < _INT64_SAFE:  # the sweep's sort keys, row * 2h + delta + h
            return _sweep_batch(stage, shifts)
    if type(shifts) is np.ndarray:  # the keys of an array step, as Python ints once
        shifts = shifts.tolist()
    floats = _pair_floats(stage.offsets) if type(stage.h) is tuple and stage.period is None else None
    return [overlap_pairs(stage, x, floats) for x in shifts]


def tuple_overlaps(stage: LatticeStage, shifts: list) -> list:
    """The m-point step of a lattice stage at each shift tuple of *shifts*:
    the delta vectors of copy j0 with copies j'_i of each shift's
    :func:`copy_windows`, counted in the order first met (j0 ascending,
    then the j'_i in ``product`` order).  Each distinct coordinate of the
    batch is reached once, into a dict that lives for this call: its copy
    windows, or on an equally spaced stage its :func:`_periodic_deltas`
    range, from which :func:`_periodic_tuples` answers in closed form.
    Each tuple reads its coordinates' entries and is checked against
    ``GUARD`` in turn.  On (a, b) pairs with no period the float offsets
    are built once for the batch."""
    periodic = stage.period is not None
    floats = _pair_floats(stage.offsets) if type(stage.h) is tuple and not periodic else None
    coordinates = dict.fromkeys(chain.from_iterable(shifts))
    for xi in coordinates:
        coordinates[xi] = _periodic_deltas(stage, xi) if periodic else copy_windows(stage, xi, floats)
    steps = []
    for x in shifts:
        reached = [coordinates[xi] for xi in x]
        if periodic:
            step = _periodic_tuples(stage.r, reached)
        else:
            groups: dict = {}
            _count_elements(groups, chain.from_iterable(product(*windows) for windows in zip(*reached)))
            step = groups.items()
        if len(step) > GUARD:
            raise ResourceError(f"m-tuple delta blowup at stage {stage.n}: more than {GUARD} delta vectors")
        steps.append(step)
    return steps


def _periodic_tuples(r: int, ranges: list) -> list:
    """:func:`tuple_overlaps` of an equally spaced stage of r copies at one
    shift tuple (x_i), in closed form from the :func:`_periodic_deltas`
    range of each x_i.  The copies j0 and j0 + k_i give the delta vector
    (x_i + k_i p), for the r - max(0, k...) + min(0, k...) copies j0 that
    keep every j0 + k_i among the r copies.  A vector is first met at
    j0 = -min(0, k...), and at one j0 in ``product`` order, so the vectors
    with a positive count, stably sorted by that j0, come in the sweep's
    order."""
    found = []
    for combo in product(*ranges):
        ks, deltas = zip(*combo)
        low = min(0, *ks)
        mult = r - max(0, *ks) + low
        if mult > 0:
            found.append((-low, deltas, mult))
    found.sort(key=itemgetter(0))
    return [item[1:] for item in found]


def _fits_int64(stage: LatticeStage, shifts) -> bool:
    """Whether *stage* has int offsets and every value of a table step on
    *shifts*, a list or an int64 array, fits int64: each is a shift plus
    an offset difference, below 2 * ``_INT64_SAFE``.  The sweep's sort
    keys also need len(shifts) * h below ``_INT64_SAFE``."""
    if type(stage.h) is not int or stage.last + stage.h >= _INT64_SAFE:
        return False
    xs = np.asarray(shifts)  # a list with a value past int64 gives an object, uint64 or float64 array
    return -_INT64_SAFE < xs.min() and xs.max() < _INT64_SAFE


def _lattice_overlaps(stage: LatticeStage, shift, floats=None) -> list:
    if stage.period is not None:  # the pairs with j' - j = k give shift + k p, r - |k| times
        pairs = [(delta, stage.r - abs(k)) for k, delta in _periodic_deltas(stage, shift)]
    else:
        counts: dict = {}
        _count_elements(counts, chain.from_iterable(copy_windows(stage, shift, floats)))
        if type(stage.h) is tuple:
            pairs = [(delta, counts[delta]) for delta in sqrt2_sorted(counts)]
        else:
            pairs = sorted(counts.items())
    if len(pairs) > GUARD:
        raise ResourceError(f"overlap blowup at stage {stage.n}: more than {GUARD} deltas")
    return pairs


def _periodic_deltas(stage: LatticeStage, shift) -> list:
    """The closed form of a stage with equally spaced offsets, o_{j+1} - o_j
    = p: (k, shift + k p) for every |k| < r with -h < shift + k p < h, k
    increasing.  Since p >= h, there are at most two such k: from
    floor((-h - shift)/p) + 1 to ceil((h - shift)/p) - 1, two exact
    integer floors, on ints or, on (a, b) pairs, by
    :func:`~rank1flow.scalars.sqrt2_floordiv`."""
    r, p, h = stage.r, stage.period, stage.h
    if type(h) is tuple:
        (pa, pb), (ha, hb), (sa, sb) = p, h, shift
        k = max(sqrt2_floordiv(-ha - sa, -hb - sb, pa, pb) + 1, 1 - r)
        end = min(-sqrt2_floordiv(sa - ha, sb - hb, pa, pb) - 1, r - 1)
        return [(j, (sa + j * pa, sb + j * pb)) for j in range(k, end + 1)]
    k = max((-h - shift) // p + 1, 1 - r)
    end = min((h - shift - 1) // p, r - 1)
    return [(j, shift + j * p) for j in range(k, end + 1)]


def copy_windows(stage: LatticeStage, shift, floats=None) -> list:
    """For each copy j, the deltas shift + o_{j'} - o_j with |delta| < h_n,
    in increasing j' and so in increasing order.

    Coordinates are lattice ints, or (a, b) pairs (see
    :func:`_pair_windows`, which takes the :func:`_pair_floats` of the
    offsets as *floats*, or builds them).  Offsets strictly increase, so
    the admissible j' form a window whose ends move monotonically with j:
    one two-pointer sweep finds every window.
    """
    if type(stage.h) is tuple:
        return _pair_windows(stage, shift, floats or _pair_floats(stage.offsets))
    offs, r, h = stage.offsets, stage.r, stage.h
    up, down = shift + h, h - shift
    windows = []
    a = b = 0
    for oj in offs:
        lo, hi = oj - up, oj + down  # need lo < o_{j'} < hi
        while a < r and not lo < offs[a]:
            a += 1
        if b < a:
            b = a
        while b < r and offs[b] < hi:
            b += 1
        base = shift - oj
        windows.append([base + o for o in offs[a:b]])
    return windows


def _pair_floats(offs: list) -> tuple:
    """The float values of (a, b) offsets, None past float range, and the
    largest |a| + 2|b|, their rounding scale."""
    magnitude = max(abs(a) + 2 * abs(b) for a, b in offs)
    floats = [a + b * SQRT2_FLOAT for a, b in offs] if magnitude.bit_length() < FLOAT_BITS else None
    return floats, magnitude


def _pair_windows(stage: LatticeStage, shift, floats: tuple) -> list:
    """:func:`copy_windows` on (a, b) pairs.  Each window end is decided on
    float values (the offsets' from *floats*, the window edges' built per
    call) where the float difference clears its rounding bound ``tol``,
    and by :func:`sqrt2_sign` of the exact difference otherwise; past
    float range every test is exact."""
    offs, r = stage.offsets, stage.r
    (ha, hb), (sa, sb) = stage.h, shift
    ua, ub, da, db = sa + ha, sb + hb, ha - sa, hb - sb  # shift + h and h - shift
    fo, magnitude = floats
    edge = max(abs(ua) + 2 * abs(ub), abs(da) + 2 * abs(db))
    if fo is not None and edge.bit_length() < FLOAT_BITS:
        fu, fd = ua + ub * SQRT2_FLOAT, da + db * SQRT2_FLOAT
        # each float is within 2**-51 (|a| + 2|b|) of its value and the two
        # roundings of a test add less than that again: tol is 4x the sum
        tol = (2 * magnitude + edge) * 2.0**-48
    else:
        fo, fu, fd, tol = [0.0] * r, 0.0, 0.0, inf
    windows = []
    a = b = 0
    for j, (oa, ob) in enumerate(offs):
        lo, hi = fo[j] - fu, fo[j] + fd  # need lo < o_{j'} < hi
        while a < r:
            d = fo[a] - lo
            if d > tol or (d >= -tol and sqrt2_sign(offs[a][0] - oa + ua, offs[a][1] - ob + ub) > 0):
                break
            a += 1
        if b < a:
            b = a
        while b < r:
            d = hi - fo[b]
            if d < -tol or (d <= tol and sqrt2_sign(oa + da - offs[b][0], ob + db - offs[b][1]) <= 0):
                break
            b += 1
        ba, bb = sa - oa, sb - ob
        windows.append([(ba + pa, bb + pb) for pa, pb in offs[a:b]])
    return windows


def _sweep_batch(stage: LatticeStage, shifts: list) -> tuple:
    """The array step of a stage on int64 offsets: the windows of
    :func:`copy_windows` of all (shift, copy) pairs found by one
    ``searchsorted`` each way, their deltas sorted by (shift, delta) and
    counted, ``_CHUNK`` (shift, copy) pairs at a time."""
    offs = np.array(stage.offsets, dtype=np.int64)
    step = max(1, _CHUNK // stage.r)
    chunks = [_sweep_chunk(stage, offs, shifts[i : i + step]) for i in range(0, len(shifts), step)]
    return _keyed(*map(np.concatenate, zip(*chunks)))


def _sweep_chunk(stage: LatticeStage, offs: np.ndarray, shifts: list) -> tuple:
    h, count = stage.h, len(shifts)
    base = np.asarray(shifts, dtype=np.int64)[:, None] - offs  # shift - o_j, one row per shift
    a = np.searchsorted(offs, (-h - base).ravel(), side="right")  # first j' with o_j' > o_j - shift - h
    width = np.searchsorted(offs, (h - base).ravel(), side="left") - a  # to the first j' with o_j' >= o_j - shift + h
    ends = np.cumsum(width)
    total = int(ends[-1])
    # j' runs from a upward inside each window
    jp = np.repeat(a - ends + width, width)
    jp += np.arange(total)
    # -h < delta < h, so key = row * 2h + delta + h orders by (row, delta)
    base += np.arange(h, 2 * h * count, 2 * h)[:, None]
    keys = np.repeat(base.ravel(), width)
    keys += offs[jp]
    keys.sort()
    first = np.flatnonzero(np.diff(keys, prepend=0))
    row, delta = np.divmod(keys[first], 2 * h)
    counts = np.bincount(row, minlength=count)
    _check_deltas(stage, counts)
    return counts, delta - h, np.diff(first, append=total)


def _table_batch(stage: LatticeStage, shifts: list) -> tuple:
    """The array step of a stage on int64 offsets from its
    :func:`_difference_table`.  The deltas of a shift x are the x + d with
    -h - x < d < h - x, one window of the table, found for every shift
    by one ``searchsorted`` each way; they come out increasing, with
    their multiplicities, and need no sort."""
    diffs, pairs = _difference_table(stage)
    h, xs = stage.h, np.asarray(shifts, dtype=np.int64)
    first = np.searchsorted(diffs, -h - xs, side="right")
    counts = np.searchsorted(diffs, h - xs, side="left") - first
    _check_deltas(stage, counts)
    ends = np.cumsum(counts)
    at = np.repeat(first - ends + counts, counts)
    at += np.arange(int(ends[-1]))
    return _keyed(counts, np.repeat(xs, counts) + diffs[at], pairs[at])


def _difference_table(stage: LatticeStage) -> tuple:
    """The distinct d = o_j' - o_j of a stage on int64 offsets, increasing,
    and the number of (j, j') pairs giving each; on an equally spaced stage
    in closed form, d = k p for |k| < r from r - |k| pairs, no offset read."""
    r, p = stage.r, stage.period
    if p is None:
        offs = np.array(stage.offsets, dtype=np.int64)
        return np.unique(offs - offs[:, None], return_counts=True)
    ks = np.arange(1 - r, r, dtype=np.int64)  # (r - 1) p = o_r - o_1 fits int64, so every k p does
    return ks * p, r - np.abs(ks)


def _keyed(counts: np.ndarray, deltas: np.ndarray, mults: np.ndarray) -> tuple:
    """An array step as (counts, keys, index, mults): *keys* the distinct
    deltas, increasing, as an int64 array, and *index* the place of each
    delta among them, so that the step is summed with no sort and its keys
    are the next frontier as they are.  Where the deltas span
    no more values than there are deltas, they are counted: the present
    values marked in a bool array of the span, each delta's index the
    rank of its mark; elsewhere ``np.unique`` sorts them."""
    low, high = (int(deltas.min()), int(deltas.max())) if deltas.size else (0, 0)
    if high - low < deltas.size:  # a span of high - low + 1 values; never for no delta
        at = deltas - low
        present = np.zeros(high - low + 1, dtype=bool)
        present[at] = True
        keys = np.flatnonzero(present) + low
        index = np.cumsum(present)[at] - 1
    else:
        keys, index = np.unique(deltas, return_inverse=True)
    return counts, keys, index, mults


def _check_deltas(stage: LatticeStage, counts: np.ndarray):
    """The per-shift guard of an array step, on its delta counts."""
    if counts.max() > GUARD:
        raise ResourceError(f"overlap blowup at stage {stage.n}: more than {GUARD} deltas")


def reflected(spacers) -> tuple:
    """The palindromic respacing of s(1) .. s(r): the 2r - 1 spacers
    s(r-1), ..., s(1), s(1), s(2), ..., s(r) and the bottom spacer s(r).
    Read bottom to top, bottom spacer first, the gaps are the reflection
    of the original around the centre copy."""
    return [*spacers[-2::-1], *spacers], spacers[-1]


def symmetrize(schedule: Schedule) -> Schedule:
    """Palindromic respacing: r'_n = 2 r_n - 1, spacers reflected around
    the centre copy, with the original top spacer duplicated underneath
    as a bottom spacer."""

    def params(n, h, w):
        st = schedule.stage(n)
        if st.bottom != 0:
            raise ConfigurationError(
                f"stage {n} already carries a bottom spacer; symmetrizing it is not defined"
            )
        return (2 * st.r - 1, *reflected(st.spacers))

    return Schedule(
        params,
        h1=schedule.h1,
        w1=schedule.w1,
        mode=schedule.mode,
        name=f"symmetrized({schedule.name})",
        meta={"symmetrized_from": schedule.name, **schedule.meta},
    )
