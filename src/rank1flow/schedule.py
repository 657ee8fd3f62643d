"""Cutting-and-stacking schedules and exact tower geometry.

A schedule assigns to every stage n >= 1 a cut number r_n > 1 and a spacer
map s_n.  Stage n of the construction is a tower of height h_n and width
w_n; it is cut into r_n columns of width w_n / r_n, a spacer of height
s_n(j) is put on top of column j, and the columns are stacked bottom to
top.  Copy j of the stage-n tower therefore sits inside the stage-(n+1)
tower at offset

    o_1 = bottom spacer (0 unless the map carries one),
    o_{j+1} = o_j + h_n + s_n(j),

and h_{n+1} = o_{r_n} + h_n + s_n(r_n).

Exact geometry is built, compared and enumerated on an integer lattice: a
:class:`Lattice` of scale D stores x as the integer x*D (rational data)
or, over Q(sqrt 2), as the integer pair (a, b) with x = (a + b*sqrt 2)/D.
Each stage is built on its own lattice, D_n = lcm of the denominators of
h_n, the bottom spacer and s_n(1) .. s_n(r_n - 1), the smallest scale
holding h_n and every offset: the spacer values are encoded once each
and the offsets accumulated as ints or int pairs.  The scalar offsets,
h_{n+1} and the spacer mass are decoded from there on first use.
:meth:`TowerStage.on_lattice` rescales a stage to a finer lattice, where
:func:`copy_windows` sweeps it with plain integer arithmetic, copy by
copy, for the m-point engine, and :func:`overlap_pairs` counts its deltas
for the 2-point one.  Pairs are compared on float values where these
clear their rounding bound, and by :func:`sqrt2_sign` where they do not.
Scalars come back only at the boundary, via :meth:`Lattice.decode`.
"""

from __future__ import annotations

from collections import _count_elements
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from math import inf, lcm
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, ResourceError
from .scalars import FLOAT_BITS, MODES, SQRT2_FLOAT, Scalar, Sqrt2, coerce, exact, scalar_to_string, sqrt2_sign, sqrt2_sorted

DEFAULT_DIGIT_BUDGET = 200_000  # bits allowed in a height numerator
# Int offsets of stages with at least _NUMPY_MIN_R copies are swept in
# NumPy.  NumPy's fixed cost per call is some 30-50 us; the Python loop
# is faster up to r ~ 40-50 and NumPy is 1.3-1.5x faster at r = 64.
# Lattice values below _INT64_SAFE = 2**61 keep every sum of three inside
# int64; larger ones stay on the Python-int sweep.
_NUMPY_MIN_R = 64
_INT64_SAFE = 2**61


# ---------------------------------------------------------------------------
# spacer maps
# ---------------------------------------------------------------------------


class SpacerMap:
    """Base class: a map j -> s(j) >= 0 for j = 1..r, plus an optional
    bottom spacer inserted underneath copy 1."""

    bottom_spacer: Scalar = 0

    def values(self, r: int) -> list:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ExplicitList(SpacerMap):
    spacers: tuple
    bottom_spacer: Scalar = 0

    def values(self, r):
        if len(self.spacers) != r:
            raise ConfigurationError(
                f"explicit spacer list has {len(self.spacers)} entries, need r={r}"
            )
        return list(self.spacers)

    def to_json(self):
        return {
            "variant": "explicit",
            "spacers": [scalar_to_string(v) for v in self.spacers],
            "bottom": scalar_to_string(self.bottom_spacer),
        }


@dataclass(frozen=True)
class Constant(SpacerMap):
    c: Scalar = 0

    def values(self, r):
        return [self.c] * r

    def to_json(self):
        return {"variant": "constant", "c": scalar_to_string(self.c)}


@dataclass(frozen=True)
class Staircase(SpacerMap):
    """s(j) = (j - 1) * u."""

    u: Scalar

    def values(self, r):
        return [(j - 1) * self.u for j in range(1, r + 1)]

    def to_json(self):
        return {"variant": "staircase", "u": scalar_to_string(self.u)}


@dataclass(frozen=True)
class FractionSplit(SpacerMap):
    """s(j) = 0 for j <= ceil(r/q), s(j) = s on the top (q-1)/q fraction."""

    q: int
    s: Scalar

    def values(self, r):
        cut = -(-r // self.q)  # ceil(r / q)
        return [0 if j <= cut else self.s for j in range(1, r + 1)]

    def to_json(self):
        return {"variant": "fraction_split", "q": self.q, "s": scalar_to_string(self.s)}


@dataclass(frozen=True)
class PairedGaps(SpacerMap):
    """k adjacent pairs (r = 2k): gap g_i above copy 2i-1, separator a_i
    above copy 2i; a_k is the final top spacer."""

    gaps: tuple
    separators: tuple

    def values(self, r):
        k = len(self.gaps)
        if len(self.separators) != k or r != 2 * k:
            raise ConfigurationError("paired gaps need r = 2k with k gaps and k separators")
        out = []
        for i in range(k):
            out.append(self.gaps[i])
            out.append(self.separators[i])
        return out

    def to_json(self):
        return {
            "variant": "paired_gaps",
            "gaps": [scalar_to_string(v) for v in self.gaps],
            "separators": [scalar_to_string(v) for v in self.separators],
        }


@dataclass(frozen=True)
class Symmetrized(SpacerMap):
    """Palindromic respacing of an inner map with r_inner copies.

    The symmetrized stage has r' = 2 r - 1 copies; read bottom to top
    (including the bottom spacer) the gap sequence is

        s(r), s(r-1), ..., s(1), s(1), s(2), ..., s(r),

    which is the reflection of the original around the centre copy.
    """

    inner: SpacerMap
    r_inner: int

    @property
    def bottom_spacer(self):  # type: ignore[override]
        return self.inner.values(self.r_inner)[-1]

    def values(self, r):
        ri = self.r_inner
        if r != 2 * ri - 1:
            raise ConfigurationError(f"symmetrized map needs r = {2 * ri - 1}, got {r}")
        s = self.inner.values(ri)
        out = [s[ri - 1 - j] for j in range(1, ri)]  # s(r-1) .. s(1)
        out.extend(s[j] for j in range(ri))  # s(1) .. s(r)
        return out

    def to_json(self):
        return {
            "variant": "symmetrized",
            "r_inner": self.r_inner,
            "inner": self.inner.to_json(),
        }


# ---------------------------------------------------------------------------
# the integer lattice
# ---------------------------------------------------------------------------


def scalar_denominator(x: Scalar) -> int:
    """Smallest D > 0 with x*D in Z (rational x) or Z[sqrt 2] (x in Q(sqrt 2))."""
    if isinstance(x, Sqrt2):
        return lcm(x.a.denominator, x.b.denominator)
    return x.denominator  # int or Fraction


class Lattice(NamedTuple):
    """Coordinates on (1/scale) Z, or on (1/scale) Z[sqrt 2] as int pairs.

    An exact scalar x whose :func:`scalar_denominator` divides ``scale`` is
    stored as the int x*scale, or, when ``sqrt2`` is set, as the pair
    (a, b) with x = (a + b*sqrt 2)/scale.  Ints and tuples of ints hash and
    compare in C, so memo and cache keys on the lattice stay cheap.
    """

    scale: int
    sqrt2: bool

    def encode(self, x: Scalar):
        if self.sqrt2:
            if isinstance(x, Sqrt2):
                return (self._int(x.a), self._int(x.b))
            return (self._int(x), 0)
        return self._int(x)

    def _int(self, x) -> int:
        return x.numerator * (self.scale // x.denominator)

    def decode(self, v) -> Scalar:
        if self.sqrt2:
            return Sqrt2(Fraction(v[0], self.scale), Fraction(v[1], self.scale))
        return Fraction(v, self.scale)


class LatticeStage(NamedTuple):
    """Height and offsets of stage n in the coordinates of one lattice."""

    n: int
    r: int
    h: object  # int or (a, b)
    offsets: list
    array: Optional[np.ndarray] = None  # the int offsets as int64, where the NumPy sweep applies
    floats: Optional[tuple] = None  # pair offsets as floats, and their largest |a| + 2|b|, within float range


def rescaled(x, m: int):
    """Lattice coordinates (an int, or tuples of them) on an m times finer scale."""
    return x * m if type(x) is int else tuple(rescaled(y, m) for y in x)


def within(x, h) -> bool:
    """|x| < h, for x and h both scalars or both lattice coordinates."""
    if type(h) is tuple:
        return sqrt2_sign(h[0] - x[0], h[1] - x[1]) > 0 and sqrt2_sign(h[0] + x[0], h[1] + x[1]) > 0
    return abs(x) < h


# ---------------------------------------------------------------------------
# schedules and stages
# ---------------------------------------------------------------------------


@dataclass
class TowerStage:
    """Exact geometry of stage n, plus the cut data used to build n+1.

    The height and offsets are stored on the stage's own lattice, of scale
    :attr:`denominator`; ``top`` holds h_{n+1} on the finer lattice that
    also takes the last spacer.  :attr:`offsets`, :attr:`h_next` and
    :attr:`spacer_mass_added` are decoded from them on first use.
    """

    n: int
    h: Scalar  # height h_n
    w: Scalar  # width w_n
    measure: Scalar  # mu(X_n)
    r: int  # cut number r_n
    spacers: list  # s_n(1) .. s_n(r_n)
    bottom: Scalar  # bottom spacer (0 unless symmetrized)
    denominator: int  # smallest lattice scale holding h and every offset
    grid: LatticeStage  # h and o_{n,1} .. o_{n,r_n} on Lattice(denominator)
    top: tuple  # (lattice, h_{n+1} in its coordinates)
    _view: Optional[tuple] = field(default=None, repr=False, compare=False)  # (lattice, view) of the last call

    @property
    def tower_measure(self):
        return self.h * self.w

    @cached_property
    def offsets(self) -> list:
        """o_{n,1} .. o_{n,r_n}."""
        decode = Lattice(self.denominator, type(self.grid.h) is tuple).decode
        return [decode(o) for o in self.grid.offsets]

    @cached_property
    def h_next(self):
        lattice, h_next = self.top
        return lattice.decode(h_next)

    @property
    def w_next(self):
        return self.w / self.r

    @cached_property
    def spacer_mass_added(self):
        # bottom + s(1) + ... + s(r) = h_{n+1} - r*h_n
        lattice, h_next = self.top
        r, h = self.r, rescaled(self.grid.h, lattice.scale // self.denominator)
        total = (h_next[0] - r * h[0], h_next[1] - r * h[1]) if type(h) is tuple else h_next - r * h
        return self.w_next * lattice.decode(total)

    def on_lattice(self, lattice: Lattice) -> LatticeStage:
        """This stage in the coordinates of *lattice*, whose scale must be a
        multiple of :attr:`denominator`; the view of the latest lattice is
        cached."""
        if self._view is None or self._view[0] != lattice:
            m, rest = divmod(lattice.scale, self.denominator)
            if rest:
                raise ValueError(f"lattice scale {lattice.scale} is not a multiple of {self.denominator}")
            grid = self.grid
            h, offsets = rescaled(grid.h, m), grid.offsets
            if type(grid.h) is tuple:
                offsets = [(a * m, b * m) for a, b in offsets] if m != 1 else offsets
            elif lattice.sqrt2:
                h, offsets = (h, 0), [(o * m, 0) for o in offsets]
            elif m != 1:
                offsets = [o * m for o in offsets]
            array = floats = None
            if lattice.sqrt2:
                magnitude = max(abs(a) + 2 * abs(b) for a, b in offsets)
                if magnitude.bit_length() < FLOAT_BITS:
                    floats = ([a + b * SQRT2_FLOAT for a, b in offsets], float(magnitude))
            elif self.r >= _NUMPY_MIN_R and offsets[-1] + h < _INT64_SAFE:
                array = np.array(offsets, dtype=np.int64)
            self._view = (lattice, LatticeStage(self.n, self.r, h, offsets, array, floats))
        return self._view[1]


class Schedule:
    """A deterministic generator n -> (r_n, SpacerMap_n) plus base data.

    ``params`` is called with (n, h_n, w_n) so that spacer maps may depend
    on the geometry built so far; stages are computed in order and cached,
    so the callback sees a consistent, reproducible history.
    """

    def __init__(
        self,
        params: Callable[[int, Scalar, Scalar], tuple],
        h1: Scalar = 1,
        w1: Scalar = 1,
        mode: str = "rational",
        name: str = "custom",
        meta: Optional[dict] = None,
        digit_budget: int = DEFAULT_DIGIT_BUDGET,
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
        self.digit_budget = digit_budget
        self._stages: list[TowerStage] = []
        self._overlap_cache: dict = {}
        self._window_cache: dict = {}

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
            h, w, mu = self.h1, self.w1, self.h1 * self.w1
        else:
            prev = self._stages[-1]
            h, w, mu = prev.h_next, prev.w_next, prev.measure + prev.spacer_mass_added
        self._check_budget(m, h)
        r, smap = self._params(m, h, w)
        if r <= 1:
            raise ConfigurationError(f"r_{m} = {r}; cut numbers must exceed 1")
        mode, sqrt2 = self.mode, self.mode == "sqrt2"
        values = smap.values(r)
        # the spacer maps repeat one object for a repeated value: each
        # object is coerced and encoded once
        scalar = {i: coerce(v, mode) for i, v in {id(v): v for v in values}.items()}
        spacers = [scalar[id(v)] for v in values]
        bottom = coerce(smap.bottom_spacer, mode)
        ids = [id(v) for v in values[:-1]]  # s(1) .. s(r-1) step the offsets; s(r) enters only h_{n+1}
        inner = {i: scalar[i] for i in ids}
        scale = lcm(scalar_denominator(h), scalar_denominator(bottom), *map(scalar_denominator, inner.values()))
        lattice = Lattice(scale, sqrt2)
        top = Lattice(lcm(scale, scalar_denominator(spacers[-1])), sqrt2)
        H, B, last = lattice.encode(h), lattice.encode(bottom), top.encode(spacers[-1])
        steps = {i: lattice.encode(v) for i, v in inner.items()}
        negative = (lambda x: sqrt2_sign(*x) < 0) if sqrt2 else (lambda x: x < 0)
        if any(map(negative, steps.values())) or negative(last):
            raise ConfigurationError(f"negative spacer at stage {m}")
        if negative(B):
            raise ConfigurationError(f"negative bottom spacer at stage {m}")
        k = top.scale // scale
        if sqrt2:  # o_{j+1} = o_j + h + s(j), component by component
            offsets = list(zip(*(accumulate([H[c] + steps[i][c] for i in ids], initial=B[c]) for c in (0, 1))))
            h_next = tuple((o + x) * k + s for o, x, s in zip(offsets[-1], H, last))
        else:
            offsets = list(accumulate([H + steps[i] for i in ids], initial=B))
            h_next = (offsets[-1] + H) * k + last
        grid = LatticeStage(m, r, H, offsets)
        self._stages.append(
            TowerStage(m, h, w, mu, r, spacers, bottom, denominator=scale, grid=grid, top=(top, h_next))
        )

    def _check_budget(self, n: int, h):
        """The digit budget: every component of h_n on its own lattice
        (its numerator, or both integers of (a + b*sqrt 2)/D) must fit."""
        a, b = Lattice(scalar_denominator(h), True).encode(h)
        bits = max(a.bit_length(), b.bit_length())
        if bits > self.digit_budget:
            raise ResourceError(
                f"digit budget exceeded at stage {n}: the height needs {bits} bits, "
                f"more than the budget of {self.digit_budget} bits"
            )

    # -- convenience -----------------------------------------------------

    def overlaps(self, n: int, shift, lattice: Lattice, guard: int = 10**6) -> list:
        """Cached :func:`overlap_pairs` for stage n, with the shift and the
        deltas in the coordinates of *lattice*.  The overlap structure
        depends on the geometry only, so all correlators on this schedule
        share it."""
        key = (n, lattice, shift)
        cached = self._overlap_cache.get(key)
        if cached is None:
            cached = overlap_pairs(self.stage(n).on_lattice(lattice), shift, guard=guard)
            if len(self._overlap_cache) < guard:
                self._overlap_cache[key] = cached
        return cached

    def windows(self, n: int, shift, lattice: Lattice, guard: int = 10**6) -> list:
        """Cached :func:`copy_windows` for stage n, keyed as :meth:`overlaps`."""
        key = (n, lattice, shift)
        cached = self._window_cache.get(key)
        if cached is None:
            cached = copy_windows(self.stage(n).on_lattice(lattice), shift)
            if len(self._window_cache) < guard:
                self._window_cache[key] = cached
        return cached

    def height(self, n: int):
        return self.stage(n).h

    def width(self, n: int):
        return self.stage(n).w


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass
class FinitenessVerdict:
    status: str  # "finite-so-far" | "diverged"
    partial_sum: Scalar
    partial_sums: list
    horizon: int


def finiteness_test(schedule: Schedule, horizon: int, budget: Scalar = 1) -> FinitenessVerdict:
    """Partial sums of the finiteness criterion series
    sum_n h_n^{-1} r_n^{-1} sum_j s_n(j).

    Never claims convergence of the full series; reports "diverged" as
    soon as the partial sum exceeds *budget*.
    """
    if horizon < 1:
        raise ConfigurationError("horizon must be >= 1")
    total: Scalar = 0
    sums = []
    status = "finite-so-far"
    for n in range(1, horizon + 1):
        st = schedule.stage(n)
        total = total + st.spacer_mass_added / st.tower_measure
        sums.append(total)
        if total > budget:
            status = "diverged"
    return FinitenessVerdict(status=status, partial_sum=total, partial_sums=sums, horizon=horizon)


def overlap_pairs(stage, shift, guard: int = 10**6) -> list:
    """All distinct values delta = shift + o_{j'} - o_j with |delta| < h_n,
    each with the number of (j, j') pairs realizing it, in increasing order
    of delta.

    *stage* is a :class:`TowerStage` with a scalar shift, or a
    :class:`LatticeStage` with the shift in the same lattice coordinates;
    the deltas come back in the coordinates that went in.  A scalar query
    runs on the smallest lattice holding the stage and the shift.
    """
    if isinstance(stage, LatticeStage):
        return _lattice_overlaps(stage, shift, guard)
    shift = exact(shift)
    lattice = Lattice(
        lcm(stage.denominator, scalar_denominator(shift)),
        isinstance(shift, Sqrt2) or isinstance(stage.h, Sqrt2),
    )
    pairs = _lattice_overlaps(stage.on_lattice(lattice), lattice.encode(shift), guard)
    return [(lattice.decode(delta), mult) for delta, mult in pairs]


def _lattice_overlaps(stage: LatticeStage, shift, guard: int) -> list:
    if stage.array is not None and -_INT64_SAFE < shift < _INT64_SAFE:
        return _sweep_numpy(stage, shift, guard)
    counts: dict = {}
    _count_elements(counts, chain.from_iterable(copy_windows(stage, shift)))
    if len(counts) > guard:
        raise ResourceError(f"overlap blowup at stage {stage.n}: more than {guard} deltas")
    if type(stage.h) is tuple:
        return [(delta, counts[delta]) for delta in sqrt2_sorted(counts)]
    return sorted(counts.items())


def copy_windows(stage: LatticeStage, shift) -> list:
    """For each copy j, the deltas shift + o_{j'} - o_j with |delta| < h_n,
    in increasing j' and so in increasing order.

    Coordinates are lattice ints, or (a, b) pairs (see
    :func:`_pair_windows`).  Offsets strictly increase, so the admissible
    j' form a window whose ends move monotonically with j: one two-pointer
    sweep finds every window.
    """
    if type(stage.h) is tuple:
        return _pair_windows(stage, shift)
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


def _pair_windows(stage: LatticeStage, shift) -> list:
    """:func:`copy_windows` on (a, b) pairs.  Each window end is decided on
    the float offsets of the view where the float difference clears its
    rounding bound ``tol``, and by :func:`sqrt2_sign` of the exact
    difference otherwise; without float offsets every test is exact."""
    offs, r = stage.offsets, stage.r
    (ha, hb), (sa, sb) = stage.h, shift
    ua, ub, da, db = sa + ha, sb + hb, ha - sa, hb - sb  # shift + h and h - shift
    tol = inf
    if stage.floats is not None and max(map(abs, (ua, ub, da, db))).bit_length() < FLOAT_BITS:
        fo, magnitude = stage.floats
        fu, fd = ua + ub * SQRT2_FLOAT, da + db * SQRT2_FLOAT
        # each float is within 2**-51 (|a| + 2|b|) of its value and the two
        # roundings of a test add less than that again: tol is 4x the sum
        tol = (2 * magnitude + max(abs(ua) + 2 * abs(ub), abs(da) + 2 * abs(db))) * 2.0**-48
    else:
        fo, fu, fd = [0.0] * r, 0.0, 0.0
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


def _sweep_numpy(stage: LatticeStage, shift: int, guard: int) -> list:
    """The windows of :func:`copy_windows` on int64 offsets, found by
    ``searchsorted``; the same sorted (delta, multiplicity) list."""
    offs = stage.array
    lo = offs - (shift + stage.h)
    hi = offs - (shift - stage.h)
    a = np.searchsorted(offs, lo, side="right")  # first j' with offs[j'] > lo
    b = np.searchsorted(offs, hi, side="left")  # first j' with offs[j'] >= hi
    width = np.maximum(b - a, 0)
    total = int(width.sum())
    if total == 0:
        return []
    j = np.repeat(np.arange(stage.r), width)
    # j' runs from a_j upward inside each window
    jp = np.arange(total) + np.repeat(a - (np.cumsum(width) - width), width)
    deltas, mult = np.unique(offs[jp] - offs[j] + shift, return_counts=True)
    if len(deltas) > guard:
        raise ResourceError(f"overlap blowup at stage {stage.n}: more than {guard} deltas")
    return list(zip(deltas.tolist(), mult.tolist()))


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
        return 2 * st.r - 1, Symmetrized(ExplicitList(tuple(st.spacers)), st.r)

    return Schedule(
        params,
        h1=schedule.h1,
        w1=schedule.w1,
        mode=schedule.mode,
        name=f"symmetrized({schedule.name})",
        meta={"symmetrized_from": schedule.name, **schedule.meta},
        digit_budget=schedule.digit_budget,
    )
