"""The lattice base case against the scalar merge loops it replaced.

``reference_cross_correlation`` and ``reference_product_integral`` merge
the breakpoints in plain ``Fraction``/``Sqrt2`` arithmetic.  The lattice
kernel, reached with scalar shifts or with lattice coordinates, must give
``repr``-identical complex values, so that even the sign of a zero
counts.  The 2-point engine's base case is ``product_integral`` on
(f, conj g) at shifts (-tau, 0); it must match the cross-correlation
loop exactly.
"""

import importlib
import random
from collections import Counter
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rank1flow import (
    Sqrt2,
    StepFunction,
    asym49_schedule,
    flat_schedule,
    lift,
    product_integral,
    random_step_function,
    staircase34_schedule,
    symmetrize,
    thm44_schedule,
)
from rank1flow.experiments import backward_candidates, forward_level_sets
from rank1flow.scalars import exact
from rank1flow.schedule import Lattice
from rank1flow.stepfun import _ARRAY_MIN_ROWS, array_integrals

correlate_module = importlib.import_module("rank1flow.correlate")  # the package exports a function of that name


def reference_cross_correlation(f, g, tau):
    lo = max(g.breakpoints[0], f.breakpoints[0] - tau)
    hi = min(g.breakpoints[-1], f.breakpoints[-1] - tau)
    if not lo < hi:
        return 0j
    fi = gi = 0
    fb = [b - tau for b in f.breakpoints]
    gb = g.breakpoints
    while fb[fi + 1] <= lo:
        fi += 1
    while gb[gi + 1] <= lo:
        gi += 1
    total = 0j
    cur = lo
    while cur < hi:
        nxt = fb[fi + 1] if fb[fi + 1] < gb[gi + 1] else gb[gi + 1]
        if nxt > hi:
            nxt = hi
        total += complex(f.values[fi]) * complex(g.values[gi]).conjugate() * float(nxt - cur)
        cur = nxt
        if fi + 1 < len(f.values) and fb[fi + 1] <= cur:
            fi += 1
        if gi + 1 < len(g.values) and gb[gi + 1] <= cur:
            gi += 1
    return total


def reference_product_integral(functions, shifts):
    lo = None
    hi = None
    shifted = []
    for f, s in zip(functions, shifts):
        b0 = f.breakpoints[0] + s
        b1 = f.breakpoints[-1] + s
        lo = b0 if lo is None or b0 > lo else lo
        hi = b1 if hi is None or b1 < hi else hi
        shifted.append(([b + s for b in f.breakpoints], f.values))
    if lo is None or not lo < hi:
        return 0j
    idx = []
    for bps, _ in shifted:
        i = 0
        while bps[i + 1] <= lo:
            i += 1
        idx.append(i)
    total = 0j
    cur = lo
    while cur < hi:
        nxt = hi
        for i, (bps, _) in enumerate(shifted):
            b = bps[idx[i] + 1]
            if b < nxt:
                nxt = b
        piece = complex(1, 0)
        for i, (_, vals) in enumerate(shifted):
            piece *= complex(vals[idx[i]])
        total += piece * float(nxt - cur)
        cur = nxt
        for i, (bps, _) in enumerate(shifted):
            if idx[i] + 1 < len(shifted[i][1]) and bps[idx[i] + 1] <= cur:
                idx[i] += 1
    return total


def on_lattice(functions, shifts, factor=1):
    """A lattice holding the breakpoints and the shifts, *factor* times
    finer than needed, and the shifts in its coordinates."""
    scale = factor
    for f in functions:
        scale *= f.lattice.scale
    for s in shifts:
        scale *= s.denominator
    sqrt2 = any(f.lattice.sqrt2 for f in functions) or any(isinstance(s, Sqrt2) for s in shifts)
    lattice = Lattice(scale, sqrt2)
    return lattice, [lattice.encode(s) for s in shifts]


def assert_cross_matches(f, g, tau, factor=1):
    """The 2-point base case, product_integral on (f, conj g) at shifts
    (-tau, 0), through the scalar and the lattice entries."""
    expected = repr(reference_cross_correlation(f, g, tau))
    pair, shifts = [f, g.conjugate()], [-tau, 0]
    assert repr(product_integral(pair, shifts)) == expected
    lattice, xs = on_lattice(pair, shifts, factor)
    assert repr(product_integral(pair, xs, lattice)) == expected


def assert_product_matches(functions, shifts, factor=1):
    expected = repr(reference_product_integral(functions, shifts))
    assert repr(product_integral(functions, shifts)) == expected
    lattice, xs = on_lattice(functions, shifts, factor)
    assert repr(product_integral(functions, xs, lattice)) == expected


BUILDERS = {
    "flat3": lambda mode: flat_schedule(3, mode=mode),
    "staircase": lambda mode: staircase34_schedule((2, 3), base=4, r_cap=16, mode=mode),
    "asym49": lambda mode: asym49_schedule(r_cap=16, mode=mode),
    "sym_asym49": lambda mode: symmetrize(asym49_schedule(r_cap=16, mode=mode)),
}
SCHEDULES = {(name, mode): build(mode) for name, build in BUILDERS.items() for mode in ("rational", "sqrt2")}
SCHEDULES["thm44", "sqrt2"] = thm44_schedule(s_values=(2,), q_max=1, k_max=1, r_cap=6)


def signed_zeros(f):
    """f with some values replaced by zeros of either sign."""
    zeros = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0j]
    return StepFunction(f.stage, list(f.breakpoints), [zeros[i % 4] if i % 3 == 1 else v for i, v in enumerate(f.values)])


def family(sched, rng, count):
    """Stage-1 functions lifted to stage 2, and stage-2 ones, some with
    signed zeros among their values."""
    out = []
    for i in range(count):
        if i % 2:
            f = lift(sched, random_step_function(1, sched.height(1), 3, rng, mean_zero=True), 2)
        else:
            f = random_step_function(2, sched.height(2), 5, rng)
        out.append(signed_zeros(f) if i % 3 == 2 else f)
    return out


def shifts_for(functions, rng, count):
    """Breakpoint differences, the +-h where supports just touch, shifts
    past the support, and seeded fractions of h."""
    h = functions[0].height
    bps = list(chain.from_iterable(f.breakpoints for f in functions))
    out = [h, -h, 2 * h, -3 * h, 0 * h]
    for _ in range(count):
        out.append(rng.choice(bps) - rng.choice(bps))
        out.append(h * Fraction(rng.randint(-11, 11), 7))
    return out


@pytest.mark.parametrize("key", sorted(SCHEDULES), ids="-".join)
def test_cross_correlation_matches_scalar_loop(key):
    sched = SCHEDULES[key]
    rng = random.Random(7)
    fs = family(sched, rng, 4)
    for f in fs:
        for g in fs:
            for k, tau in enumerate(shifts_for([f, g], rng, 3)):
                assert_cross_matches(f, g, tau, factor=1 + k % 3)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("key", sorted(SCHEDULES), ids="-".join)
def test_product_integral_matches_scalar_loop(key, m):
    sched = SCHEDULES[key]
    rng = random.Random(11 + m)
    fs = family(sched, rng, m)
    pool = shifts_for(fs, rng, 4)
    for k in range(12):
        shifts = [0 * pool[0], *(rng.choice(pool) for _ in range(m - 1))]
        assert_product_matches(fs, shifts, factor=1 + k % 2)


def test_supports_that_touch_or_miss_give_zero():
    f = StepFunction(1, [0, Fraction(1, 3), 1], [1 + 0j, -2j])
    for tau in (1, -1, 2, Fraction(-5, 2)):
        assert product_integral([f, f.conjugate()], [-tau, 0]) == 0j == reference_cross_correlation(f, f, tau)
        assert product_integral([f, f], [0, tau]) == 0j == reference_product_integral([f, f], [0, tau])


def pell_function(n):
    """Breakpoints 0 < eps < 1 < 2 - eps < 2 with eps = a - b sqrt 2 =
    (3 + 2 sqrt 2)**-n, a Pell near-tie (99 - 70 sqrt 2 for n = 3)."""
    a, b = 1, 0
    for _ in range(n):
        a, b = 3 * a + 4 * b, 2 * a + 3 * b
    eps = Sqrt2(a, -b)
    return StepFunction(1, [Sqrt2(0), eps, Sqrt2(1), 2 - eps, Sqrt2(2)], [1 + 1j, complex(-0.0, 2), -1j, 0.5 + 0j])


@pytest.mark.parametrize("n", [1, 3, 10, 25])
def test_sqrt2_breakpoints_at_pell_near_ties(n):
    f = pell_function(n)
    eps = f.breakpoints[1]
    g = StepFunction(1, [Sqrt2(0), Sqrt2(1), Sqrt2(2)], [complex(0.0, -0.0), 3 + 0j])
    for tau in (eps, -eps, 2 * eps, 1 - eps, eps - 1, Sqrt2(0, 1) - 1, Sqrt2(0), 1 - 2 * eps):
        assert_cross_matches(f, g, tau)
        assert_cross_matches(f, f, tau, factor=3)
        assert_product_matches([f, g, f], [Sqrt2(0), tau, -tau])


breakpoint_steps = st.lists(st.fractions(min_value=Fraction(1, 12), max_value=3, max_denominator=12), min_size=1, max_size=6)
values = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)


@st.composite
def step_function(draw, sqrt2):
    steps = draw(breakpoint_steps)
    if sqrt2:
        steps = [Sqrt2(s, draw(st.fractions(min_value=0, max_value=1, max_denominator=5))) for s in steps]
    bps = [0 * steps[0]]
    for s in steps:
        bps.append(bps[-1] + s)
    return StepFunction(1, bps, [draw(values) for _ in steps])


@st.composite
def base_case(draw):
    sqrt2 = draw(st.booleans())
    m = draw(st.integers(min_value=2, max_value=4))
    functions = [draw(step_function(sqrt2)) for _ in range(m)]
    bps = list(chain.from_iterable(f.breakpoints for f in functions))
    shift = st.one_of(
        st.fractions(min_value=-8, max_value=8, max_denominator=24),
        st.builds(lambda a, b: a - b, st.sampled_from(bps), st.sampled_from(bps)),
    )
    if sqrt2:
        shift = st.one_of(shift, st.builds(Sqrt2, st.fractions(-4, 4, max_denominator=6), st.fractions(-4, 4, max_denominator=6)))
    return functions, [0, *(draw(shift) for _ in range(m - 1))], draw(st.integers(min_value=1, max_value=5))


@settings(max_examples=100, deadline=None)
@given(base_case())
def test_base_case_matches_scalar_loops_on_random_data(case):
    functions, shifts, factor = case
    assert_product_matches(functions, shifts, factor)
    assert_cross_matches(functions[0], functions[1], shifts[1], factor)


@st.composite
def base_frontier(draw):
    """Functions on one int lattice whose breakpoints come from one small
    pool of points, so that they repeat across functions, with heights up
    to a common h, and value parts among them zeros of either sign; and
    a frontier of ``_ARRAY_MIN_ROWS`` or more shift tuples, among them
    the shifts +-h and shifts past every support."""
    factor, scale = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    lattice, h = Lattice(factor * scale, False), draw(st.integers(1, 12))
    part = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 0.1, 3.0])
    functions = []
    for _ in range(draw(st.integers(2, 4))):
        top = draw(st.one_of(st.just(h), st.integers(1, h)))
        inner = sorted(draw(st.sets(st.integers(1, top - 1), max_size=5))) if top > 1 else []
        bps = [Fraction(b, scale) for b in (0, *inner, top)]
        functions.append(StepFunction(1, bps, [complex(draw(part), draw(part)) for _ in inner + [top]]))
    end = factor * h  # h in the lattice's coordinates
    shift = st.one_of(st.integers(-end - 2, end + 2), st.sampled_from([end, -end, 0, 3 * end, -3 * end]))
    rows = draw(st.lists(st.tuples(*[shift] * (len(functions) - 1)), min_size=_ARRAY_MIN_ROWS, max_size=3 * _ARRAY_MIN_ROWS))
    return functions, [(0, *row) for row in rows], lattice


@settings(max_examples=200, deadline=None)
@given(base_frontier())
def test_array_base_case_equals_product_integral(case):
    """The array pass of a whole base frontier, repr for repr the values of
    product_integral tuple by tuple, signed zeros included."""
    functions, shifts, lattice = case
    (values,) = array_integrals([functions], shifts, lattice)
    assert values.dtype == complex
    assert repr(values.tolist()) == repr([product_integral(functions, x, lattice) for x in shifts])
    # the frontier as an int64 array of one row per tuple: the same values
    stacked = array_integrals([functions], np.array(shifts, dtype=np.int64), lattice)[0]
    assert repr(stacked.tolist()) == repr(values.tolist())


# asym49's stage-2 sets: the unit combs of its backward witnesses (5 to 11
# pieces) and the seed-0 random level sets of its forward probe (4 pieces)
ASYM49 = asym49_schedule()
ASYM49_SETS = [f for _, f in backward_candidates(ASYM49, {})] + forward_level_sets(ASYM49, {"seed": 0, "forward_sets": 3})


@st.composite
def family_frontier(draw):
    """A family of 1 to 12 members of one arity m = 2, 3 or 4 on one int
    lattice, each function asym49's stage-2 comb or level set or one of its
    own with up to 13 pieces, so that the grids differ in width and value
    count from member to member, value parts among them zeros of either
    sign; and a frontier of ``_ARRAY_MIN_ROWS`` or more shift tuples, among
    them the shifts +-h and shifts past every support."""
    factor, m = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    lattice, quarters = Lattice(4 * factor, False), int(4 * ASYM49.height(2))  # h in quarters
    part = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 0.1, 3.0])

    def function():
        if draw(st.booleans()):
            return draw(st.sampled_from(ASYM49_SETS))
        top = draw(st.integers(1, quarters))
        inner = sorted(draw(st.sets(st.integers(1, top - 1), max_size=12))) if top > 1 else []
        return StepFunction(2, [Fraction(b, 4) for b in (0, *inner, top)], [complex(draw(part), draw(part)) for _ in inner + [top]])

    family = [[function() for _ in range(m)] for _ in range(draw(st.integers(1, 12)))]
    end = factor * quarters  # h in the lattice's coordinates
    shift = st.one_of(st.integers(-end - 2, end + 2), st.sampled_from([end, -end, 0, 3 * end, -3 * end]))
    rows = draw(st.lists(st.tuples(*[shift] * (m - 1)), min_size=_ARRAY_MIN_ROWS, max_size=3 * _ARRAY_MIN_ROWS))
    return family, [(0, *row) for row in rows], lattice


@settings(max_examples=100, deadline=None)
@given(family_frontier(), st.booleans())
def test_family_pass_equals_product_integral_per_member(case, stacked):
    """One array pass for a whole family, as a list of tuples or an int64
    array of rows: one complex array per member, repr for repr the values
    of product_integral member by member and tuple by tuple."""
    family, shifts, lattice = case
    values = array_integrals(family, np.array(shifts, dtype=np.int64) if stacked else shifts, lattice)
    assert len(values) == len(family)
    for functions, vs in zip(family, values):
        assert vs.dtype == complex and vs.shape == (len(shifts),)
        assert repr(vs.tolist()) == repr([product_integral(functions, x, lattice) for x in shifts])


def test_a_family_whose_bands_pass_int64_keeps_product_integral(base_rows):
    """Grids of 2**53 - 1 lattice units lie in bands of 2**53 per member,
    1,024 of which end below 2**63: such a family takes the array pass,
    and one of 1,025 members keeps product_integral, member by member and
    tuple by tuple, with the same values."""
    wide = StepFunction(1, [0, 1, 2**53 - 1], [1 + 0j, -2j])
    narrow = [StepFunction(1, [0, k, 2 * k + 1], [0.5 + 1j, complex(-0.0, 3)]) for k in (1, 2, 3)]
    lattice, rows = Lattice(1, False), [(0, k * k - 20) for k in range(_ARRAY_MIN_ROWS)]
    family = [[wide, narrow[i % 3]] for i in range(1025)]
    expected = [repr([product_integral(functions, row, lattice) for row in rows]) for functions in family]
    assert array_integrals(family, rows, lattice) is None
    assert [repr(vs) for vs in correlate_module._base(family, rows, lattice)] == expected
    assert base_rows == Counter(product_integral=1025 * len(rows))
    base_rows.clear()
    values = correlate_module._base(family[:-1], rows, lattice)
    assert base_rows == Counter(array=1024 * len(rows))
    assert [repr(vs.tolist()) for vs in values] == expected[:-1]


def test_the_array_pass_needs_exact_floats():
    """A shift of 2**53 or more, or a scale whose float is not exact,
    leaves a frontier to product_integral."""
    f = StepFunction(1, [0, 1, 2], [1 + 0j, 2j])
    rows = [(0, k) for k in range(_ARRAY_MIN_ROWS)]
    assert array_integrals([[f, f]], rows, Lattice(1, False))[0] is not None
    assert array_integrals([[f, f]], [*rows, (0, 2**53)], Lattice(1, False)) is None
    assert array_integrals([[f, f]], [*rows, (-(2**53), 0)], Lattice(1, False)) is None
    # past int64, a list of rows is an object, uint64 or float64 array, out of range too
    for far in ((0, 2**70), (0, 2**63), (-1, 2**63), (-(2**70), 0)):
        assert array_integrals([[f, f]], [*rows, far], Lattice(1, False)) is None
    assert array_integrals([[f, f]], np.array(rows, dtype=np.int64), Lattice(1, False))[0] is not None
    tiny = StepFunction(1, [0, Fraction(1, 3**34), Fraction(2, 3**34)], [1 + 0j, 2j])
    assert tiny.on_lattice(Lattice(3**34, False)) == [0, 1, 2]
    assert array_integrals([[tiny, tiny]], rows, Lattice(3**34, False)) is None


def test_float_shifts_enter_at_their_exact_value():
    sched = SCHEDULES["asym49", "rational"]
    rng = random.Random(3)
    f, g = family(sched, rng, 2)
    for tau in (0.05, -1.75, 3.3, 1e-9, -0.1 * 7):
        expected = reference_cross_correlation(f, g, exact(tau))
        assert repr(product_integral([f, g.conjugate()], [-tau, 0])) == repr(expected)
        assert repr(product_integral([f, g], [0, tau])) == repr(reference_product_integral([f, g], [0, exact(tau)]))
    thm = SCHEDULES["thm44", "sqrt2"]
    f, g = family(thm, rng, 2)
    assert repr(product_integral([f, g.conjugate()], [-0.3, 0])) == repr(reference_cross_correlation(f, g, Sqrt2(exact(0.3))))


def test_grid_needs_a_multiple_of_the_breakpoint_scale():
    f = StepFunction(1, [0, Fraction(1, 6), 1], [1 + 0j, 2 + 0j])
    assert f.lattice == Lattice(6, False)
    assert f.on_lattice(Lattice(12, False)) == [0, 2, 12]
    assert f.on_lattice(Lattice(12, True)) == [(0, 0), (2, 0), (12, 0)]
    with pytest.raises(ValueError, match="not a multiple of 6"):
        f.on_lattice(Lattice(4, False))
