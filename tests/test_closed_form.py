"""Equally spaced stages in closed form.

A stage whose r spacers are one object is built as the progression
o_1 + j*p, and :meth:`TowerStage.on_lattice` rescales an equally spaced
stage from m*o_1 and m*p.  Both must give, value for value and type for
type, what the per-copy build and the per-offset rescale give.
"""

from fractions import Fraction
from itertools import accumulate

import pytest

from rank1flow import (
    Sqrt2,
    asym49_schedule,
    flat_schedule,
    schedule_from_json,
    staircase34_schedule,
    symmetrize,
    thm44_schedule,
)
from rank1flow.errors import ModeError
from rank1flow.scalars import coerce, sqrt2_sign
from rank1flow.schedule import Lattice, LatticeStage, Schedule


def per_copy_stage(mode, n, h, r, values, bottom=0):
    """Stage n the per-copy way: every spacer object coerced once in one
    pass, each distinct one encoded once, the offsets accumulated one copy
    at a time and the period read off the encoded steps.  Returns
    (spacers, lattice, grid, h_next)."""
    scalars, ids, spacers = {}, [], []
    for v in values:
        i = id(v)
        if i not in scalars:
            scalars[i] = coerce(v, mode)
        ids.append(i)
        spacers.append(scalars[i])
    bottom = coerce(bottom, mode)
    inner = ids[:-1]
    distinct = dict.fromkeys(inner)
    lattice = Lattice.holding([h, bottom, *(scalars[i] for i in distinct)])
    H, B = lattice.encode(h), lattice.encode(bottom)
    steps = {i: lattice.encode(scalars[i]) for i in distinct}
    assert all(sqrt2_sign(*s) >= 0 if lattice.sqrt2 else s >= 0 for s in steps.values())
    if lattice.sqrt2:
        rises = [(H[0] + steps[i][0], H[1] + steps[i][1]) for i in inner]
        offsets = list(zip(*(accumulate(c, initial=b) for c, b in zip(zip(*rises), B))))
    else:
        offsets = list(accumulate((H + steps[i] for i in inner), initial=B))
    period = None
    if len(set(steps.values())) == 1:
        period = tuple(y - x for x, y in zip(*offsets[:2])) if lattice.sqrt2 else offsets[1] - offsets[0]
    h_next = lattice.decode(offsets[-1]) + h + spacers[-1]
    return spacers, lattice, LatticeStage(n, r, H, offsets, period), h_next


def shape(x):
    """The types of lattice coordinates or scalars, nested."""
    if isinstance(x, (tuple, list)):
        return type(x), [shape(v) for v in x]
    return type(x)


def assert_same(got, want):
    assert got == want
    assert shape(got) == shape(want)


BUILDERS = {
    "flat": lambda: flat_schedule(3, h1="2/3"),
    "flat-sqrt2": lambda: flat_schedule(2, h1="1/3", mode="sqrt2"),
    "staircase34": lambda: staircase34_schedule((2, 4, 6), base=4, r_cap=256),
    "asym49": lambda: asym49_schedule(r_cap=64),
    "thm44": lambda: thm44_schedule(s_values=(2,), q_max=2, k_max=1, r_cap=256),
    "thm44-m_first": lambda: thm44_schedule(s_values=(2, 3), q_max=1, k_max=2, r_cap=64, m_first=True),
    "symmetrized-staircase34": lambda: symmetrize(staircase34_schedule((2, 3), base=4, r_cap=64)),
    "symmetrized-thm44": lambda: symmetrize(thm44_schedule(s_values=(2,), q_max=2, k_max=1, r_cap=24)),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_closed_form_stages_equal_the_per_copy_build(name):
    """Stages 1-8 of each builder equal the per-copy build of the same
    params: grid (h, offsets, period), their types, the spacers and h_next.
    Each builder has stages whose spacers are one object, so the closed
    form is taken."""
    sched, fresh = BUILDERS[name](), BUILDERS[name]()
    closed = 0
    for n in range(1, 9):
        st = sched.stage(n)
        r, values, *bottom = fresh._params(n, st.h, st.w)
        closed += all(v is values[0] for v in values)
        spacers, lattice, grid, h_next = per_copy_stage(sched.mode, n, st.h, r, values, *bottom)
        assert st.lattice == lattice
        assert_same(st.grid, grid)
        assert_same(st.spacers, spacers)
        assert_same(st.h_next, h_next)
    assert closed > 0


def test_one_spacer_object_is_shared_by_every_copy():
    st = thm44_schedule(s_values=(2,), q_max=2, k_max=1, r_cap=256).stage(6)  # an L1 stage, r = 256
    assert st.r == 256 and st.grid.period is not None
    assert all(s is st.spacers[0] for s in st.spacers)
    assert st.spacers[0] == Sqrt2(0, 2)


A, B, C = Fraction(1, 3), Fraction(1, 7), Fraction(2, 5)


@pytest.mark.parametrize(
    "values",
    [[A, A, B], [B, A, A, B], [A, B, C], [A, A, Fraction(1, 3)], [B, B, B]],
    ids=["top-only", "top-also-below", "all-distinct", "equal-top", "one-object"],
)
def test_the_top_spacer_enters_the_lattice_only_where_it_steps_an_offset(values):
    """s(r) sets no offset: its object counts toward the stage lattice only
    where it is also one of s(1) .. s(r-1)."""
    st = Schedule(lambda n, h, w: (len(values), values), h1="1/2").stage(1)
    spacers, lattice, grid, h_next = per_copy_stage("rational", 1, st.h, len(values), values)
    assert st.lattice == lattice
    assert_same(st.grid, grid)
    assert_same(st.spacers, spacers)
    assert_same(st.h_next, h_next)


@pytest.mark.parametrize("one_object", [True, False], ids=["one-object", "distinct-objects"])
def test_a_bad_spacer_is_named_before_a_bad_bottom(one_object):
    """Spacers are coerced before the bottom spacer, on either build path."""
    spacers = ["1+1*sqrt2"] * 2 if one_object else ["1+1*sqrt2", "3+1*sqrt2"]
    s = Schedule(lambda n, h, w: (2, spacers, "2+1*sqrt2"))
    with pytest.raises(ModeError, match=r"Sqrt2\(1, 1\)"):
        s.stage(1)


def stages_doc(mode, h1, spacer, r=3):
    return schedule_from_json({"mode": mode, "h1": h1, "stages": [{"r": r, "spacer": spacer}]})


@pytest.mark.parametrize("mode, h1, c", [("rational", "1/2", "1/3"), ("sqrt2", "1+1*sqrt2", "1/3+1*sqrt2")])
def test_equal_distinct_spacer_objects_keep_the_constant_period(mode, h1, c):
    """An explicit stage of equal but distinct objects takes the per-copy
    build, which finds the period by value: its stages are those of the
    constant variant, where one object takes the closed form."""
    constant = stages_doc(mode, h1, {"variant": "constant", "c": c})
    explicit = stages_doc(mode, h1, {"variant": "explicit", "spacers": [c] * 3})
    for n in range(1, 5):
        want, got = constant.stage(n), explicit.stage(n)
        assert got.spacers[0] is not got.spacers[1]
        assert all(s is want.spacers[0] for s in want.spacers)
        assert want.grid.period is not None
        assert_same(got.grid, want.grid)
        assert_same(got.spacers, want.spacers)
        assert_same(got.h_next, want.h_next)


@pytest.mark.parametrize(
    "h1, periods",
    [("0+1*sqrt2", [(0, 1), (0, 3), (0, 9)]), ("-1+1*sqrt2", [(-1, 1), (-3, 3), (-9, 9)])],
    ids=["standing-component", "falling-component"],
)
@pytest.mark.parametrize("variant", [{"variant": "constant", "c": "0"}, {"variant": "explicit", "spacers": ["0"] * 3}])
def test_sqrt2_progression_with_a_zero_or_negative_component(h1, periods, variant):
    """At r = 3 with zero spacers the period is h itself: (0, 3) and
    (-3, 3) at stage 2, a component that stands still or falls."""
    sched = stages_doc("sqrt2", h1, variant)
    for n, p in enumerate(periods, start=1):
        grid = sched.stage(n).grid
        assert grid.period == p
        assert grid.offsets == [(0, 0), p, (2 * p[0], 2 * p[1])]
        assert grid.h == p


def per_offset_view(stage, lattice):
    """The view on *lattice*, each coordinate rescaled by itself."""
    grid, coarse = stage.grid, stage.lattice
    period = None if grid.period is None else lattice.recode(grid.period, coarse)
    offsets = [lattice.recode(o, coarse) for o in grid.offsets]
    return LatticeStage(grid.n, grid.r, lattice.recode(grid.h, coarse), offsets, period)


VIEWS = {
    "int-on-int": (lambda: staircase34_schedule((2,), base=4, r_cap=64).stage(3), False),
    "int-past-int64": (lambda: flat_schedule(5, h1=2**62 + 1).stage(2), False),
    "sqrt2": (lambda: thm44_schedule(s_values=(2,), q_max=2, k_max=1, r_cap=256).stage(6), True),
    "sqrt2-standing": (lambda: stages_doc("sqrt2", "0+1*sqrt2", {"variant": "constant", "c": "1/3"}).stage(2), True),
    "sqrt2-falling": (lambda: stages_doc("sqrt2", "-1+1*sqrt2", {"variant": "constant", "c": "0"}).stage(2), True),
    "int-on-sqrt2": (lambda: flat_schedule(4, h1="3/5").stage(3), True),
}


@pytest.mark.parametrize("name", VIEWS)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_equally_spaced_view_equals_the_per_offset_rescale(name, m):
    build, sqrt2 = VIEWS[name]
    stage = build()
    assert stage.grid.period is not None
    lattice = Lattice(stage.denominator * m, sqrt2)
    assert_same(stage.on_lattice(lattice), per_offset_view(stage, lattice))


def test_staircase_variant_takes_any_scalar_step():
    """The "staircase" variant's u may be a Q(sqrt 2) scalar."""
    st = stages_doc("sqrt2", "1", {"variant": "staircase", "u": "0+1*sqrt2"}, r=4).stage(1)
    assert st.spacers == [Sqrt2(0), Sqrt2(0, 1), Sqrt2(0, 2), Sqrt2(0, 3)]
    assert all(type(s) is Sqrt2 for s in st.spacers)


def test_staircase34_spacers_are_fractions_j_times_u():
    sched = staircase34_schedule((2, 4), base=4, r_cap=256)
    for n, k in ((2, 4), (4, 16)):
        r, values = sched._params(n, sched.height(n), sched.width(n))
        assert r == k * k
        assert all(type(v) is Fraction for v in values)
        assert values == [j * Fraction(1, k) for j in range(r)]
