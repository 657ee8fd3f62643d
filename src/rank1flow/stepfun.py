"""Step functions measurable with respect to a tower stage.

A stage-k measurable function depends on the height in the stage-k tower
only; it is stored as strictly increasing breakpoints
0 = b_0 < ... < b_m = h_k with one complex value per piece
[b_{i-1}, b_i).

The base case of the correlation engine, :func:`product_integral`, runs
on the integer lattice of :mod:`rank1flow.schedule`.  A function's
breakpoint grid is its breakpoints on a lattice whose scale is a
multiple of that of its :attr:`StepFunction.lattice`: ints, or (a, b)
pairs over Q(sqrt 2); the grid of the latest lattice is cached.  One
merge loop walks the shifted grids of all functions, with the shifts in
the same coordinates; scalar shifts go on the smallest lattice that
holds them and the breakpoints.  Each piece length is the float that
``float()`` of the exact ``Fraction`` or ``Sqrt2`` length gives.  The
cross-correlation int f(y + tau) conj(g(y)) dy is the case
``product_integral([f, g.conjugate()], (-tau, 0))``.

The engine asks for the base case of a whole family at a whole frontier
of shift tuples.  On an int lattice, from ``_ARRAY_MIN_ROWS`` tuples up,
with every coordinate below 2**53 and the members' search bands inside
int64, :func:`array_integrals` answers the frontier for every member in
one NumPy pass, bit for bit the values of :func:`product_integral`, which
answers everything else member by member and tuple by tuple.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ResourceError
from .scalars import Scalar, exact, sqrt2_float, sqrt2_sorted, to_float
from .schedule import Lattice

MAX_BREAKPOINTS = 2_000_000  # the most breakpoints lift builds per stage
# A base frontier on an int lattice is one array pass from _ARRAY_MIN_ROWS
# shift tuples up.  The pass costs some 60-150 us whatever its size;
# measured at m = 2, 3 and 4 on functions of 4, 8 and 16 pieces,
# product_integral per tuple is 1.5-4x faster at 2-4 tuples, the two
# are about even at 6-10, and the pass is 1.3-3.3x faster at 16.  Every
# int below _FLOAT_EXACT = 2**53 is an exact float.
_ARRAY_MIN_ROWS = 8
_FLOAT_EXACT = 2**53
_INT64_END = 2**63  # the searched bands end at or below it


@dataclass
class StepFunction:
    stage: int
    breakpoints: list  # m + 1 scalars, 0 = b_0 < ... < b_m = h_stage
    values: list  # m complex values
    _grid: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)  # (lattice, grid) of the last call

    def __post_init__(self):
        if len(self.breakpoints) != len(self.values) + 1:
            raise ConfigurationError("need one more breakpoint than values")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not a < b:
                raise ConfigurationError("breakpoints must be strictly increasing")
        to_float(self.breakpoints[-1] - self.breakpoints[0], f"the support length of a stage-{self.stage} function")

    @property
    def height(self):
        return self.breakpoints[-1]

    @cached_property
    def lattice(self) -> Lattice:
        """The smallest lattice holding every breakpoint."""
        return Lattice.holding(map(exact, self.breakpoints))

    def on_lattice(self, lattice: Lattice) -> list:
        """The breakpoints in the coordinates of *lattice* (ints, or (a, b)
        pairs), whose scale must be a multiple of that of :attr:`lattice`;
        the grid of the latest lattice is cached."""
        if self._grid is None or self._grid[0] != lattice:
            if lattice.scale % self.lattice.scale:
                raise ValueError(f"lattice scale {lattice.scale} is not a multiple of {self.lattice.scale}")
            self._grid = (lattice, [lattice.encode(exact(b)) for b in self.breakpoints])
        return self._grid[1]

    @property
    def sup_norm(self) -> float:
        return max(abs(complex(v)) for v in self.values) if self.values else 0.0

    def __call__(self, y: Scalar) -> complex:
        """Value at height y; 0 outside [0, h_k)."""
        if y < 0 or not y < self.height:
            return 0j
        lo, hi = 0, len(self.values) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.breakpoints[mid] <= y:
                lo = mid
            else:
                hi = mid - 1
        return complex(self.values[lo])

    def conjugate(self) -> "StepFunction":
        """The complex conjugate, on the same breakpoints."""
        return StepFunction(self.stage, list(self.breakpoints), [complex(v).conjugate() for v in self.values])


def indicator(stage: int, height: Scalar, lo: Scalar, hi: Scalar) -> StepFunction:
    """1 on [lo, hi), 0 elsewhere on [0, height)."""
    if not (0 <= lo < hi <= height):
        raise ConfigurationError("indicator interval must be inside [0, height)")
    bps: list = [0 * height]  # zero in the scalar type of height
    vals: list = []
    if lo > 0:
        bps.append(lo)
        vals.append(0j)
    bps.append(hi)
    vals.append(1 + 0j)
    if hi < height:
        bps.append(height)
        vals.append(0j)
    return StepFunction(stage, bps, vals)


def level_partition(stage: int, height: Scalar, levels: int) -> list:
    """Breakpoints of the uniform partition of [0, h) into *levels* pieces."""
    return [height * Fraction(i, levels) for i in range(levels + 1)]


def random_step_function(
    stage: int,
    height: Scalar,
    levels: int,
    rng: random.Random,
    mean_zero: bool = False,
) -> StepFunction:
    """A seeded random function on the uniform level partition."""
    bps = level_partition(stage, height, levels)
    vals = []
    for _ in range(levels):
        re = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0])
        im = rng.choice([-0.5, 0.0, 0.5])
        vals.append(complex(re, im))
    if all(v == 0 for v in vals):
        vals[rng.randrange(levels)] = 1 + 0j
    if mean_zero:
        m = sum(vals) / levels
        vals = [v - m for v in vals]
    return StepFunction(stage, bps, vals)


def random_level_set(stage: int, height: Scalar, levels: int, rng: random.Random) -> StepFunction:
    """Indicator of a random union of levels (at least one level)."""
    bps = level_partition(stage, height, levels)
    vals = [complex(rng.randrange(2)) for _ in range(levels)]
    if all(v == 0 for v in vals):
        vals[rng.randrange(levels)] = 1 + 0j
    return StepFunction(stage, bps, vals)


# ---------------------------------------------------------------------------
# the base case and lifting
# ---------------------------------------------------------------------------


def _pieces(functions: Sequence[StepFunction], shifts, lattice: Optional[Lattice]):
    """Yield (length, idx) for each piece of the common support of the
    f_i(y - shift_i), in increasing y: a maximal interval on which no
    shifted breakpoint falls, with idx[i] the piece of f_i there (one
    list, updated in place).

    With a *lattice*, the shifts are given in its coordinates; scalar
    shifts (a float at its exact value) are put on the smallest lattice
    holding them and the breakpoints.  On an int lattice the shifted
    breakpoints are their own order keys; Q(sqrt 2) pairs are ranked
    through :func:`sqrt2_sorted`.  A length is (B - A)/D, a correctly
    rounded int division as ``float(Fraction)`` is, or
    :func:`sqrt2_float` of the pair difference, as ``float(Sqrt2)``.
    """
    if lattice is None:
        shifts = [exact(s) for s in shifts]
        lattice = Lattice.holding(shifts, *(f.lattice for f in functions))
        shifts = [lattice.encode(s) for s in shifts]
    scale = lattice.scale
    grids = [f.on_lattice(lattice) for f in functions]
    points = None
    if lattice.sqrt2:
        shifted = [[(a + sa, b + sb) for a, b in grid] for grid, (sa, sb) in zip(grids, shifts)]
        points = sqrt2_sorted(chain.from_iterable(shifted))
        rank = {p: i for i, p in enumerate(points)}
        keys = [[rank[p] for p in bps] for bps in shifted]
    else:
        keys = [[b + s for b in grid] for grid, s in zip(grids, shifts)]
    lo = max(bps[0] for bps in keys)
    hi = min(bps[-1] for bps in keys)
    if not lo < hi:
        return
    idx = [bisect_right(bps, lo) - 1 for bps in keys]
    cur = lo
    while cur < hi:
        nxt = hi
        for bps, i in zip(keys, idx):
            b = bps[i + 1]
            if b < nxt:
                nxt = b
        if points is None:
            yield (nxt - cur) / scale, idx
        else:
            (a0, b0), (a1, b1) = points[cur], points[nxt]
            yield sqrt2_float(a1 - a0, b1 - b0, scale), idx
        cur = nxt
        for n, bps in enumerate(keys):
            if bps[idx[n] + 1] <= cur:
                idx[n] += 1


def product_integral(functions: Sequence[StepFunction], shifts: Sequence, lattice: Optional[Lattice] = None) -> complex:
    """integral of prod_i f_i(y - shift_i) dy over the common support;
    the shifts are scalars, or lattice coordinates with *lattice* given."""
    first, *rest = [[complex(v) for v in f.values] for f in functions]
    total = 0j
    for length, idx in _pieces(functions, shifts, lattice):
        piece = first[idx[0]]
        for k, vals in enumerate(rest, 1):
            piece *= vals[idx[k]]
        total += piece * length
    return total


def array_integrals(family: Sequence[Sequence[StepFunction]], shifts, lattice: Lattice) -> Optional[list]:
    """:func:`product_integral` of each member (f_0, ..., f_{m-1}) of
    *family* at every shift tuple of *shifts* (lattice coordinates, one
    shift per function: a list of tuples, or an int64 array of one row per
    tuple), as one complex array per member from one array pass for the
    whole family, or None where the batch rule keeps
    :func:`product_integral`: on a Q(sqrt 2) lattice, at a grid, shift or
    scale of 2**53 or more, where the members' bands (below) would pass
    int64, and for fewer than ``_ARRAY_MIN_ROWS`` tuples.

    Every grid is padded to the family's widest with its last point, which
    adds only empty pieces.  Each (member, row)'s shifted grids are
    clipped to its common support [lo, hi] and sorted, all in one sort;
    the pieces are the steps between distinct points, in (member, row)
    order.  Each function position finds the pieces of every member by
    one ``searchsorted``, on the members' unshifted grids laid in disjoint
    integer bands, member i's moved to [i * span, (i + 1) * span), span
    the width of all grids.  Below 2**53 a length (B - A)/D is a quotient of two exact
    floats, so it is the correctly rounded value of Python's int
    division.  The products take the real and imaginary parts apart, in
    Python's order (``piece = f_0``, ``piece *= f_i``, then times length
    + 0j), and each (member, row) is summed in piece order from 0.0 by
    ``bincount``: every value is the one of :func:`product_integral`, bit
    for bit.
    """
    if lattice.sqrt2 or len(shifts) < _ARRAY_MIN_ROWS or lattice.scale >= _FLOAT_EXACT:
        return None
    grids = [[f.on_lattice(lattice) for f in functions] for functions in family]
    xs = np.asarray(shifts)  # a list with a value past int64 gives an object, uint64 or float64 array
    low = min(g[0] for member in grids for g in member)
    high = max(g[-1] for member in grids for g in member)
    span = high - low + 1  # member i's grids, less low, lie in its band [i * span, (i + 1) * span)
    if not (
        -_FLOAT_EXACT < low and high < _FLOAT_EXACT and -_FLOAT_EXACT < xs.min() and xs.max() < _FLOAT_EXACT
        and len(family) * span <= _INT64_END
    ):
        return None
    members, rows, m = len(family), len(shifts), len(family[0])
    width = max(len(g) for member in grids for g in member)
    padded = np.array([[g + g[-1:] * (width - len(g)) for g in member] for member in grids], dtype=np.int64)
    points = (xs[:, :, None] + padded[:, None]).reshape(members * rows, m, width)
    lo = points[:, :, :1].max(axis=1, keepdims=True)
    hi = points[:, :, -1:].min(axis=1, keepdims=True)
    points.clip(lo, hi, out=points)
    points = points.reshape(members * rows, -1)
    points.sort(axis=1)
    steps = points[:, 1:] - points[:, :-1]
    row, col = np.nonzero(steps)
    length = steps[row, col] / lattice.scale
    member, at = np.divmod(row, rows)
    # the start of each piece, unshifted, per function, in its member's band
    keys = points[row, col] - xs[at].T - low + member * span
    bands = padded - low + (np.arange(members, dtype=np.int64) * span)[:, None, None]
    # each function's values padded to the width alike, so that a piece's
    # value sits one place below the place its start is searched to
    values = [[[complex(v) for v in f.values] + [0j] * (width - len(f.values)) for f in functions] for functions in family]
    table = np.array(values, dtype=complex)
    parts = [table[:, i].ravel()[np.searchsorted(bands[:, i].ravel(), keys[i], side="right") - 1] for i in range(m)]
    re, im = parts[0].real, parts[0].imag
    for part in parts[1:]:
        vr, vi = part.real, part.imag
        re, im = re * vr - im * vi, re * vi + im * vr
    total = members * rows
    sums = np.empty(total, dtype=complex)
    sums.real = np.bincount(row, re * length - im * 0.0, total)
    sums.imag = np.bincount(row, re * 0.0 + im * length, total)
    return list(sums.reshape(members, rows))


def lift(schedule, f: StepFunction, target_stage: int) -> StepFunction:
    """The stage-N function equal to f on every copy of its stage and 0 on
    all spacer levels, materialized explicitly.

    Only meant for shallow towers (the oracle); the main engine uses the
    offset recursion and never builds deep lifts.
    """
    if target_stage < f.stage:
        raise ConfigurationError("cannot lift downward")
    cur = f
    for n in range(f.stage, target_stage):
        st = schedule.stage(n)
        h_next = st.h_next
        bps: list = [st.h * 0]
        vals: list = []
        pos = bps[0]
        for j in range(st.r):
            o = st.offsets[j]
            if o > pos:
                bps.append(o)
                vals.append(0j)
            for b, v in zip(cur.breakpoints[1:], cur.values):
                bps.append(o + b)
                vals.append(v)
            pos = o + cur.breakpoints[-1]
            if len(bps) > MAX_BREAKPOINTS:
                raise ResourceError("lift breakpoint blowup")
        if pos < h_next:
            bps.append(h_next)
            vals.append(0j)
        cur = StepFunction(n + 1, bps, vals)
    return cur


def reflect(f: StepFunction, schedule=None, stage: int | None = None) -> StepFunction:
    """(reflect f)(y) = f(h - y) relative to a tower stage; an involution
    preserving norms.

    With no stage given the flip happens inside f's own stage.  Passing a
    deeper stage lifts f there first and flips the whole lifted column;
    the two orders of lift and flip agree exactly only when the spacer
    sequences are palindromic.
    """
    if stage is not None:
        if schedule is None:
            raise ConfigurationError("reflecting at another stage needs the schedule")
        f = lift(schedule, f, stage)
    h = f.height
    bps = [h - b for b in reversed(f.breakpoints)]
    vals = list(reversed(f.values))
    return StepFunction(f.stage, bps, vals)
