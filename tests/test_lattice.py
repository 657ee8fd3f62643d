"""The integer-lattice kernel against the scalar loop it replaced.

``reference_overlap_pairs`` is the two-pointer sweep in plain
``Fraction``/``Sqrt2`` arithmetic; the lattice kernel (Python ints, int64
NumPy arrays, and (a, b) pairs for Q(sqrt 2)) must return the same
(delta, multiplicity) list, in the same order, for every input.
"""

from collections import Counter
from fractions import Fraction
from itertools import chain, product

import pytest
from hypothesis import given, settings, strategies as st

from rank1flow import (
    ExplicitList,
    Schedule,
    Sqrt2,
    asym49_schedule,
    flat_schedule,
    overlap_pairs,
    staircase34_schedule,
    symmetrize,
    thm44_schedule,
)
from rank1flow.scalars import sqrt2_sign
from rank1flow.schedule import Lattice, LatticeStage, copy_windows, scalar_denominator


def reference_overlap_pairs(stage, shift):
    h, offs, r = stage.h, stage.offsets, stage.r
    counts = Counter()
    a = b = 0
    for j in range(r):
        oj = offs[j]
        lo = oj - shift - h
        hi = oj - shift + h
        while a < r and not offs[a] > lo:
            a += 1
        if b < a:
            b = a
        while b < r and offs[b] < hi:
            b += 1
        for jp in range(a, b):
            counts[shift - oj + offs[jp]] += 1
    return sorted(counts.items())


# (builder, deepest stage probed); every builder in both exact modes, and
# stages with r >= 64 so that the NumPy sweep runs too
BUILDERS = {
    "flat3": (lambda mode: flat_schedule(3, mode=mode), 4),
    "flat64": (lambda mode: flat_schedule(64, mode=mode), 2),
    "staircase": (lambda mode: staircase34_schedule((2, 3), base=4, r_cap=64, mode=mode), 3),
    "asym49": (lambda mode: asym49_schedule(r_cap=16, mode=mode), 4),
    "sym_asym49": (lambda mode: symmetrize(asym49_schedule(r_cap=16, mode=mode)), 3),
}
SCHEDULES = {(name, mode): build(mode) for name, (build, _) in BUILDERS.items() for mode in ("rational", "sqrt2")}
SCHEDULES["thm44", "sqrt2"] = thm44_schedule(s_values=(2,), q_max=1, k_max=1, r_cap=6)
DEPTH = {key: BUILDERS.get(key[0], (None, 4))[1] for key in SCHEDULES}

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def stage_and_shift(draw):
    key = draw(st.sampled_from(sorted(SCHEDULES)))
    sched = SCHEDULES[key]
    stage = sched.stage(draw(st.integers(min_value=1, max_value=DEPTH[key])))
    kind = draw(st.sampled_from(["small", "height_multiple", "offset_difference", "window_edge", "sqrt2"]))
    if kind == "small":
        shift = draw(fractions)
    elif kind == "height_multiple":
        shift = draw(fractions) * stage.h
    elif kind in ("offset_difference", "window_edge"):
        # shift = o_i - o_k gives an exact delta 0; adding h puts a delta on
        # the edge of the open window, where it must be excluded
        i, k = draw(st.integers(0, stage.r - 1)), draw(st.integers(0, stage.r - 1))
        shift = stage.offsets[i] - stage.offsets[k]
        if kind == "window_edge":
            shift = shift + draw(st.sampled_from([1, -1])) * stage.h
    else:
        shift = Sqrt2(draw(fractions), draw(fractions))
    if draw(st.booleans()):
        shift = -shift
    return sched, stage, shift


@settings(max_examples=150, deadline=None)
@given(stage_and_shift())
def test_lattice_kernel_matches_scalar_loop(case):
    _, stage, shift = case
    expected = reference_overlap_pairs(stage, shift)
    got = overlap_pairs(stage, shift)
    assert got == expected
    assert [type(d) for d, _ in got] == [type(d) for d, _ in expected]


@settings(max_examples=60, deadline=None)
@given(stage_and_shift(), st.integers(min_value=1, max_value=7))
def test_engine_lattice_matches_scalar_loop(case, factor):
    """The engine's path: a cached lattice view at a scale finer than
    needed, reached through ``Schedule.overlaps``."""
    sched, stage, shift = case
    scale = factor * stage.denominator * scalar_denominator(shift)
    lattice = Lattice(scale, isinstance(shift, Sqrt2) or isinstance(stage.h, Sqrt2))
    got = sched.overlaps(stage.n, lattice.encode(shift), lattice=lattice)
    assert [(lattice.decode(d), m) for d, m in got] == reference_overlap_pairs(stage, shift)


@pytest.mark.parametrize("key", [("asym49", "rational"), ("asym49", "sqrt2"), ("thm44", "sqrt2")], ids="-".join)
def test_schedule_caches_the_copy_windows(key):
    """The m-point step reads its windows through ``Schedule.windows``:
    the windows of ``copy_windows``, kept per (stage, lattice, shift)."""
    sched = SCHEDULES[key]
    stage = sched.stage(2)
    coarse, fine = (Lattice(k * stage.denominator, type(stage.grid.h) is tuple) for k in (1, 2))
    shifts = (0 * stage.h, stage.h - stage.offsets[1], stage.offsets[-1] - stage.offsets[0])
    # the same coordinates on two lattices are two shifts, cached apart
    for x, lattice in product(map(coarse.encode, shifts), (coarse, fine)):
        windows = sched.windows(2, x, lattice)
        assert windows == copy_windows(stage.on_lattice(lattice), x)
        assert sched.windows(2, x, lattice) is windows
        assert Counter(chain.from_iterable(windows)) == Counter(dict(sched.overlaps(2, x, lattice)))


def test_numpy_sweep_runs_on_wide_stages():
    sched = SCHEDULES["staircase", "rational"]
    lattice = Lattice(sched.stage(3).denominator, False)
    assert sched.stage(3).r == 64 and sched.stage(3).on_lattice(lattice).array is not None
    assert sched.stage(2).r == 16 and sched.stage(2).on_lattice(lattice).array is None


def test_python_sweep_beyond_int64():
    wide = flat_schedule(64, h1=2**62).stage(2)
    lattice = Lattice(3, False)
    assert wide.on_lattice(lattice).array is None
    shift = Fraction(2**68 + 1, 3)
    assert overlap_pairs(wide, shift) == reference_overlap_pairs(wide, shift) != []
    # a shift past int64 on a stage that does fit: the sweep skips NumPy
    narrow = SCHEDULES["flat64", "rational"].stage(2)
    view = narrow.on_lattice(lattice)
    assert view.array is not None
    assert overlap_pairs(view, lattice.encode(shift)) == reference_overlap_pairs(narrow, shift) == []


def test_stage_view_follows_the_latest_lattice():
    stage = SCHEDULES["staircase", "sqrt2"].stage(3)
    coarse = Lattice(stage.denominator, True)
    fine = Lattice(6 * stage.denominator, True)
    for lattice in (coarse, fine, coarse):
        view = stage.on_lattice(lattice)
        assert stage.on_lattice(lattice) is view
        assert (view.h, view.offsets) == (lattice.encode(stage.h), [lattice.encode(o) for o in stage.offsets])


def test_stage_view_needs_a_multiple_of_the_stage_scale():
    stage = SCHEDULES["staircase", "rational"].stage(2)
    assert stage.denominator == 4
    with pytest.raises(ValueError, match="not a multiple of 4"):
        stage.on_lattice(Lattice(6, False))
    view = stage.on_lattice(Lattice(12, True))  # a rational stage on a Q(sqrt 2) lattice
    assert view.offsets == [(3 * o, 0) for o in stage.grid.offsets] and view.h == (3 * stage.grid.h, 0)


def test_pair_deltas_sorted_exactly_where_floats_cannot_tell():
    # eps = a - b sqrt 2 ~ 2**-100: as floats the deltas -eps, 0, eps are
    # rounding garbage, positive for n = 40, zero for 41 and negative for
    # 42, so a float sort alone would misorder the last two
    for n in (40, 41, 42):
        a, b = pell(n)
        eps = (a, -b)
        stage = LatticeStage(n=1, r=2, h=(1, 0), offsets=[(0, 0), eps])
        assert overlap_pairs(stage, (0, 0)) == [((-a, b), 1), ((0, 0), 2), (eps, 1)]


def test_float_filter_defers_near_ties_to_the_exact_sign():
    # offsets 0 < 1 + eps < 3 + eps with eps = 99 - 70 sqrt 2; shifts that
    # put a window end within (3 + 2 sqrt 2)**-n of an offset, where the
    # float offsets of the view cannot tell the side
    spacers = ExplicitList((Sqrt2(99, -70), Sqrt2(1), Sqrt2(0)))
    stage = Schedule(lambda n, h, w: (3, spacers), mode="sqrt2").stage(1)
    assert stage.on_lattice(Lattice(1, True)).floats is not None
    offs = stage.offsets
    for n in (2, 20, 40):
        a, b = pell(n)
        for tiny in (Sqrt2(0), Sqrt2(a, -b), Sqrt2(-a, b)):
            for i in range(3):
                for k in range(3):
                    for edge in (stage.h, -stage.h, 0):
                        shift = offs[i] - offs[k] + edge + tiny
                        assert overlap_pairs(stage, shift) == reference_overlap_pairs(stage, shift)


PELL_NEAR_TIES = [(99, -70), (577, -408), (3363, -2378), (-99, 70), (-577, 408), (17, -12), (-17, 12)]


def pell(n):
    """(a, b) with a + b sqrt 2 = (3 + 2 sqrt 2)**n; a - b sqrt 2 = 1 / that."""
    a, b = 1, 0
    for _ in range(n):
        a, b = 3 * a + 4 * b, 2 * a + 3 * b
    return a, b


def test_sign_predicate_on_pell_near_ties():
    for a, b in PELL_NEAR_TIES:
        assert sqrt2_sign(a, b) == Sqrt2(a, b).sign()
    for n in (10, 40, 300, 1300):  # a - b sqrt 2 = 1/(a + b sqrt 2): below any float margin
        a, b = pell(n)
        for sa, sb in ((a, -b), (-a, b), (a + 1, -b), (a - 1, -b)):
            assert sqrt2_sign(sa, sb) == Sqrt2(sa, sb).sign()


def test_sign_predicate_beyond_float_range():
    big = 2**1100
    for a, b in [(big, -big), (-3 * big, 2 * big), (big + 1, -(big // 2)), *((a * big, b * big) for a, b in PELL_NEAR_TIES)]:
        assert sqrt2_sign(a, b) == Sqrt2(a, b).sign()


huge = st.integers(min_value=-(2**1200), max_value=2**1200)
small = st.integers(min_value=-(10**6), max_value=10**6)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(small, small), st.tuples(huge, huge), st.tuples(huge, small)))
def test_sign_predicate_matches_exact_sign(pair):
    a, b = pair
    assert sqrt2_sign(a, b) == Sqrt2(a, b).sign()


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=-3, max_value=3), st.integers(min_value=0, max_value=2**60))
def test_sign_predicate_near_ties_after_scaling(n, nudge, scale):
    a, b = pell(n)
    a, b = (a + nudge) * (scale + 1), -b * (scale + 1)
    assert sqrt2_sign(a, b) == Sqrt2(a, b).sign()
