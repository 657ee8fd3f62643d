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

Exact geometry is compared and enumerated on an integer lattice: a
:class:`Lattice` of scale D stores x as the integer x*D (rational data)
or, over Q(sqrt 2), as the integer pair (a, b) with x = (a + b*sqrt 2)/D.
:meth:`TowerStage.on_lattice` gives a stage's height and offsets in those
coordinates, and :func:`overlap_pairs` sweeps them with plain integer
arithmetic; the order of a pair is decided by :func:`sqrt2_sign`.  Scalars
come back only at the boundary, via :meth:`Lattice.decode`.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import lcm
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, ResourceError
from .scalars import MODES, Scalar, Sqrt2, coerce, scalar_to_string, sqrt2_sign

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
    """Exact geometry of stage n, plus the cut data used to build n+1."""

    n: int
    h: Scalar  # height h_n
    w: Scalar  # width w_n
    measure: Scalar  # mu(X_n)
    r: int  # cut number r_n
    spacers: list  # s_n(1) .. s_n(r_n)
    bottom: Scalar  # bottom spacer (0 unless symmetrized)
    offsets: list = field(default_factory=list)  # o_{n,1} .. o_{n,r_n}
    _view: Optional[tuple] = field(default=None, repr=False, compare=False)  # (lattice, view) of the last call

    @property
    def tower_measure(self):
        return self.h * self.w

    @property
    def h_next(self):
        return self.offsets[-1] + self.h + self.spacers[-1]

    @property
    def w_next(self):
        return self.w / self.r

    @property
    def spacer_mass_added(self):
        total = self.bottom
        for s in self.spacers:
            total = total + s
        return self.w_next * total

    def offset(self, j: int):
        """o_{n,j}, 1-based."""
        return self.offsets[j - 1]

    @cached_property
    def denominator(self) -> int:
        """Smallest lattice scale holding h and every offset (exact data only)."""
        return lcm(scalar_denominator(self.h), *(scalar_denominator(o) for o in self.offsets))

    def on_lattice(self, lattice: Lattice) -> LatticeStage:
        """This stage in the coordinates of *lattice*, whose scale must be a
        multiple of :attr:`denominator`; the view of the latest lattice is
        cached."""
        if self._view is None or self._view[0] != lattice:
            encode = lattice.encode
            h = encode(self.h)
            offsets = [encode(o) for o in self.offsets]
            array = None
            if not lattice.sqrt2 and self.r >= _NUMPY_MIN_R and offsets[-1] + h < _INT64_SAFE:
                array = np.array(offsets, dtype=np.int64)
            self._view = (lattice, LatticeStage(self.n, self.r, h, offsets, array))
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
        self.digit_budget = digit_budget
        self._stages: list[TowerStage] = []
        self._lock = threading.Lock()
        self._overlap_cache: dict = {}

    # -- stage computation ----------------------------------------------

    def stage(self, n: int) -> TowerStage:
        if n < 1:
            raise ConfigurationError("stage index must be >= 1")
        with self._lock:
            while len(self._stages) < n:
                self._build_next()
            return self._stages[n - 1]

    def _build_next(self):
        m = len(self._stages) + 1
        if m == 1:
            h, w, mu = self.h1, self.w1, self.h1 * self.w1
        else:
            prev = self._stages[-1]
            h = prev.h_next
            w = prev.w_next
            mu = prev.measure + prev.spacer_mass_added
        self._check_budget(h)
        r, smap = self._params(m, h, w)
        if r <= 1:
            raise ConfigurationError(f"r_{m} = {r}; cut numbers must exceed 1")
        spacers = [coerce(v, self.mode) for v in smap.values(r)]
        bottom = coerce(smap.bottom_spacer, self.mode)
        for v in spacers:
            if v < 0:
                raise ConfigurationError(f"negative spacer at stage {m}")
        if bottom < 0:
            raise ConfigurationError(f"negative bottom spacer at stage {m}")
        offsets = [bottom]
        for j in range(r - 1):
            offsets.append(offsets[-1] + h + spacers[j])
        self._stages.append(
            TowerStage(n=m, h=h, w=w, measure=mu, r=r, spacers=spacers, bottom=bottom, offsets=offsets)
        )

    def _check_budget(self, h):
        if isinstance(h, float):
            return
        num = h.a.numerator if hasattr(h, "a") else Fraction(h).numerator
        if num.bit_length() > self.digit_budget:
            raise ResourceError(
                f"height numerator exceeds the digit budget ({self.digit_budget} bits)"
            )

    # -- convenience -----------------------------------------------------

    def overlaps(self, n: int, shift, guard: int = 10**6, lattice: Optional[Lattice] = None) -> list:
        """Cached :func:`overlap_pairs` for stage n; with a *lattice*, the
        shift and the deltas are its coordinates.  The overlap structure
        depends on the geometry only, so all correlators on this schedule
        share it."""
        key = (n, lattice, shift)
        cached = self._overlap_cache.get(key)
        if cached is None:
            stage = self.stage(n)
            if lattice is not None:
                stage = stage.on_lattice(lattice)
            cached = overlap_pairs(stage, shift, guard=guard)
            if len(self._overlap_cache) < guard:
                self._overlap_cache[key] = cached
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
        mass: Scalar = st.bottom
        for s in st.spacers:
            mass = mass + s
        total = total + mass / (st.h * st.r)
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
    the deltas come back in the coordinates that went in.  An exact scalar
    query runs on the smallest lattice holding the stage and the shift.

    Offsets are strictly increasing, so the j' admissible for a given j
    form a contiguous window, and both window ends move monotonically
    with j (a single two-pointer sweep, no per-j bisection).
    """
    if isinstance(stage, LatticeStage) or isinstance(shift, float) or isinstance(stage.h, float):
        return _sweep(stage, shift, guard)
    lattice = Lattice(
        lcm(stage.denominator, scalar_denominator(shift)),
        isinstance(shift, Sqrt2) or isinstance(stage.h, Sqrt2),
    )
    pairs = _sweep(stage.on_lattice(lattice), lattice.encode(shift), guard)
    return [(lattice.decode(delta), mult) for delta, mult in pairs]


def _sweep(stage, shift, guard: int) -> list:
    """The two-pointer sweep on lattice ints, on a float shift over scalar
    offsets, or (delegated) on lattice pairs."""
    h = stage.h
    if type(h) is tuple:
        return _sweep_sqrt2(stage, shift, guard)
    if getattr(stage, "array", None) is not None and -_INT64_SAFE < shift < _INT64_SAFE:
        return _sweep_numpy(stage, shift, guard)
    offs = stage.offsets
    r = stage.r
    counts: Counter = Counter()
    a = b = 0
    for j in range(r):
        oj = offs[j]
        lo = oj - shift - h  # need offs[j'] > lo
        hi = oj - shift + h  # need offs[j'] < hi
        while a < r and not offs[a] > lo:
            a += 1
        if b < a:
            b = a
        while b < r and offs[b] < hi:
            b += 1
        base = shift - oj
        for jp in range(a, b):
            counts[base + offs[jp]] += 1
        if len(counts) > guard:
            raise ResourceError(f"overlap blowup at stage {stage.n}: more than {guard} deltas")
    return sorted(counts.items())


def _sweep_numpy(stage: LatticeStage, shift: int, guard: int) -> list:
    """:func:`_sweep` on int64 offsets: the same windows found by
    ``searchsorted``, the same sorted (delta, multiplicity) list."""
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


def _sweep_sqrt2(stage: LatticeStage, shift: tuple, guard: int) -> list:
    """:func:`_sweep` on (a, b) pairs, ordered through :func:`sqrt2_sign`."""
    ha, hb = stage.h
    sa, sb = shift
    offs = stage.offsets
    r = stage.r
    counts: Counter = Counter()
    a = b = 0
    for j in range(r):
        oa, ob = offs[j]
        lo_a, lo_b = oa - sa - ha, ob - sb - hb
        hi_a, hi_b = oa - sa + ha, ob - sb + hb
        while a < r and sqrt2_sign(offs[a][0] - lo_a, offs[a][1] - lo_b) <= 0:
            a += 1
        if b < a:
            b = a
        while b < r and sqrt2_sign(offs[b][0] - hi_a, offs[b][1] - hi_b) < 0:
            b += 1
        base_a, base_b = sa - oa, sb - ob
        for jp in range(a, b):
            pa, pb = offs[jp]
            counts[(base_a + pa, base_b + pb)] += 1
        if len(counts) > guard:
            raise ResourceError(f"overlap blowup at stage {stage.n}: more than {guard} deltas")
    items = list(counts.items())
    items.sort(key=cmp_to_key(lambda p, q: sqrt2_sign(p[0][0] - q[0][0], p[0][1] - q[0][1])))
    return items


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
