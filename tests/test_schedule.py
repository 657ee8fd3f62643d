from dataclasses import fields
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from rank1flow import (
    Schedule,
    Sqrt2,
    asym49_schedule,
    finiteness_test,
    flat_schedule,
    overlap_pairs,
    schedule_from_json,
    staircase34_schedule,
    symmetrize,
    thm44_schedule,
)
from rank1flow import schedule as schedule_module
from rank1flow.errors import ConfigurationError, ResourceError
from rank1flow.scalars import coerce
from rank1flow.schedule import Lattice, TowerStage


def explicit_schedule(entries):
    """Schedule from [(r, spacer_tuple), ...], last entry repeated."""

    def params(n, h, w):
        r, spacers = entries[min(n - 1, len(entries) - 1)]
        return r, spacers

    return Schedule(params)


def test_flat_two_geometry(flat2):
    assert flat2.height(1) == 1
    assert flat2.height(2) == 2
    assert flat2.height(3) == 4
    assert flat2.stage(2).offsets == [0, 2]
    assert flat2.width(3) == Fraction(1, 4)


def test_single_spacer_example():
    sched = explicit_schedule([(2, (0, 1))])
    assert sched.height(2) == 3
    assert sched.stage(2).measure == Fraction(3, 2)


def test_offset_recursion_generic():
    sched = explicit_schedule([(3, (1, 0, 2)), (2, (0, 1))])
    for n in range(1, 6):
        st = sched.stage(n)
        assert st.offsets[0] == st.bottom
        for j in range(1, st.r):
            assert st.offsets[j] == st.offsets[j - 1] + st.h + st.spacers[j - 1]
        assert sched.height(n + 1) == st.offsets[-1] + st.h + st.spacers[-1]


def test_width_and_measure_recursions():
    sched = explicit_schedule([(4, (0, 1, 0, 2))])
    for n in range(1, 5):
        st = sched.stage(n)
        nxt = sched.stage(n + 1)
        assert nxt.w == st.w / st.r
        assert nxt.measure == st.measure + st.spacer_mass_added
        assert nxt.measure >= st.measure


def test_the_measure_is_height_times_width(small_asym, small_thm44, small_staircase):
    """mu(X_n) is read as h_n w_n, not stored: the value, type included,
    of the sum mu(X_1) + the spacer mass of the stages below."""
    assert "measure" not in {field.name for field in fields(TowerStage)}
    for sched in (small_asym, small_thm44, symmetrize(small_asym), small_staircase):
        total = sched.h1 * sched.w1
        for n in range(1, 6):
            stage = sched.stage(n)
            assert type(stage.measure) is type(total) and stage.measure == total
            assert stage.measure == stage.h * stage.w == stage.tower_measure
            total = total + stage.spacer_mass_added


def test_asym49_offset_pattern(small_asym):
    st = small_asym.stage(1)
    h = st.h
    assert st.spacers == [0, 1, 1, 2, 2]
    assert st.offsets == [0, h, 2 * h + 1, 3 * h + 2, 4 * h + 4]
    assert small_asym.height(2) == 5 * h + 6


def test_cut_number_must_exceed_one():
    sched = explicit_schedule([(1, (0,))])
    with pytest.raises(ConfigurationError):
        sched.stage(1)


def test_spacer_list_of_wrong_length_names_the_stage():
    sched = Schedule(lambda n, h, w: (3, [0, 0, 0] if n < 3 else [0, 0]))
    assert sched.stage(2).r == 3
    with pytest.raises(ConfigurationError, match="stage 3 has 2 spacers, need r_3 = 3"):
        sched.stage(3)


def test_negative_spacer_rejected():
    sched = explicit_schedule([(2, (0, -1))])
    with pytest.raises(ConfigurationError):
        sched.stage(2)


def test_overlap_pairs_flat_zero_shift(flat2):
    st = flat2.stage(1)  # offsets [0, 1], h = 1
    assert overlap_pairs(st, 0) == [(0, 2)]


def test_overlap_pairs_with_shift():
    sched = explicit_schedule([(2, (0, 1))])
    st = sched.stage(1)  # offsets [0, 1], h = 1, copies abut below spacer
    # shift 1: deltas 1 + o_{j'} - o_j in (-1, 1): only (j=2, j'=1) -> 0
    assert overlap_pairs(st, 1) == [(0, 1)]


def test_overlap_pairs_multiplicity_grouping(flat3):
    st = flat3.stage(2)  # offsets [0, 3, 6], h = 3
    pairs = dict(overlap_pairs(st, 0))
    assert pairs[0] == 3
    assert sum(pairs.values()) == 3  # off-diagonal deltas are +-3, excluded


def test_overlap_fast_path_matches_generic(small_staircase):
    # the fractional-shift path exercises the same sweep; compare a
    # rational shift against the same shift fed through the schedule's
    # step, which works on a lattice, with the deltas decoded
    st = small_staircase.stage(2)
    shift = Fraction(5, 4)
    direct = overlap_pairs(st, shift)
    lattice = Lattice(st.denominator * 4, False)
    (stepped,) = small_staircase.overlaps(2, [lattice.encode(shift)], lattice)
    assert [(lattice.decode(d), m) for d, m in stepped] == direct
    assert small_staircase.overlaps(2, [lattice.encode(shift)], lattice)[0] == stepped
    assert all(isinstance(d, Fraction) for d, _ in direct)


def test_overlap_pairs_negation_symmetry(small_asym):
    st = small_asym.stage(2)
    fwd = overlap_pairs(st, Fraction(7, 3))
    bwd = overlap_pairs(st, Fraction(-7, 3))
    assert sorted((-d, m) for d, m in bwd) == fwd


def test_finiteness_flat_is_zero(flat2):
    verdict = finiteness_test(flat2, 10)
    assert verdict.partial_sum == 0


def test_finiteness_diverges_on_fat_spacers():
    # s(j) = h on both copies: each stage adds mass comparable to the tower
    def params(n, h, w):
        return 2, (h, h)

    sched = Schedule(params)
    verdict = finiteness_test(sched, 5)
    assert verdict.partial_sums == [1, 2, 3, 4, 5]


def test_finiteness_partial_sums_monotone(small_asym):
    verdict = finiteness_test(small_asym, 8)
    sums = verdict.partial_sums
    assert all(a <= b for a, b in zip(sums, sums[1:]))


def test_symmetrize_small_example():
    # r = 2 with spacers (s1, s2): the symmetrized stage has r' = 3,
    # bottom spacer s2 and gaps s1, s1, s2 read bottom to top
    sched = explicit_schedule([(2, (3, 5))])
    sym = symmetrize(sched)
    st = sym.stage(1)
    assert st.r == 3
    assert st.bottom == 5
    assert st.spacers == [3, 3, 5]


def test_symmetrize_flat_stays_flat(flat3):
    sym = symmetrize(flat3)
    for n in range(1, 4):
        st = sym.stage(n)
        assert st.r == 5
        assert st.bottom == 0
        assert all(s == 0 for s in st.spacers)


def test_symmetrize_palindrome_including_bottom(small_asym):
    sym = symmetrize(small_asym)
    for n in range(1, 5):
        st = sym.stage(n)
        gaps = [st.bottom] + st.spacers
        assert gaps == gaps[::-1]


def test_symmetrize_twice_rejected_on_bottom_spacer(small_asym):
    sym = symmetrize(small_asym)
    with pytest.raises(ConfigurationError):
        symmetrize(sym).stage(1)


def test_schedule_from_json_stages_repeat_last():
    doc = {
        "stages": [
            {"r": 2, "spacer": {"variant": "explicit", "spacers": ["0", "1"]}},
            {"r": 3, "spacer": {"variant": "constant", "c": "0"}},
        ]
    }
    sched = schedule_from_json(doc)
    assert sched.stage(1).r == 2
    assert sched.stage(2).r == 3
    assert sched.stage(5).r == 3


# ---------------------------------------------------------------------------
# the lattice build against the scalar build it replaced
# ---------------------------------------------------------------------------


def reference_stages(sched, depth):
    """Stages 1..depth built the old way: coerce every spacer, then add the
    Fraction/Sqrt2 offsets one by one.  *sched* must be fresh, since its
    ``params`` may record the stages it has seen."""
    out = []
    mode = sched.mode
    h, w, mu = sched.h1, sched.w1, sched.h1 * sched.w1
    for n in range(1, depth + 1):
        r, values, *bottom = sched._params(n, h, w)
        spacers = [coerce(v, mode) for v in values]
        bottom = coerce(bottom[0] if bottom else 0, mode)
        offsets = [bottom]
        for j in range(r - 1):
            offsets.append(offsets[-1] + h + spacers[j])
        total = bottom
        for v in spacers:
            total = total + v
        stage = {
            "h": h,
            "offsets": offsets,
            "h_next": offsets[-1] + h + spacers[-1],
            "measure": mu,
            "spacer_mass_added": w / r * total,
            "denominator": lcm(h.denominator, *(o.denominator for o in offsets)),
        }
        out.append(stage)
        h, w, mu = stage["h_next"], w / r, mu + stage["spacer_mass_added"]
    return out


def assert_same_scalar(got, want):
    assert type(got) is type(want) and got == want
    if isinstance(want, Sqrt2):
        assert (type(got.a), type(got.b)) == (type(want.a), type(want.b))


def assert_builds_like_reference(build, depth):
    sched, fresh = build(), build()
    for n, want in enumerate(reference_stages(fresh, depth), start=1):
        got = sched.stage(n)
        for name in ("h", "h_next", "measure", "spacer_mass_added", "denominator"):
            assert_same_scalar(getattr(got, name), want[name])
        assert len(got.offsets) == len(want["offsets"]) == got.r
        for o, ref in zip(got.offsets, want["offsets"]):
            assert_same_scalar(o, ref)


BUILDS = {
    "flat": (lambda mode: flat_schedule(3, h1="2/3", w1="1/5", mode=mode), 4),
    "staircase34": (lambda mode: staircase34_schedule((2, 3), base=4, r_cap=64, mode=mode), 4),
    "asym49": (lambda mode: asym49_schedule(r_cap=16, h1="1/2", mode=mode), 5),
    "symmetrized_asym49": (lambda mode: symmetrize(asym49_schedule(r_cap=16, mode=mode)), 4),
    "thm44": (lambda mode: thm44_schedule(s_values=(2, 3), q_max=2, k_max=2, r_cap=24, h1="1+1*sqrt2"), 8),
    "symmetrized_thm44": (lambda mode: symmetrize(thm44_schedule(s_values=(2,), q_max=1, k_max=1, r_cap=6)), 5),
    # s(r) = 1/7 enters only h_{n+1}: the stage lattice does not take it
    "last_spacer_alone": (
        lambda mode: Schedule(lambda n, h, w: (3, (1, 0, Fraction(n, 7))), mode=mode),
        4,
    ),
    # h = 1/2 and s = 1/2 or 3/2: the steps h + s are whole, D_n still takes h
    "cancelling_denominators": (
        lambda mode: Schedule(
            lambda n, h, w: (3, (Fraction(1, 2), Fraction(3, 2), 1), Fraction(1, 3)),
            h1=Fraction(1, 2),
            mode=mode,
        ),
        4,
    ),
}
BUILD_CASES = [(name, mode) for name in BUILDS for mode in ("rational", "sqrt2") if "thm44" not in name or mode == "sqrt2"]


@pytest.mark.parametrize(("name", "mode"), BUILD_CASES, ids=[f"{n}-{m}" for n, m in BUILD_CASES])
def test_lattice_build_matches_scalar_build(name, mode):
    build, depth = BUILDS[name]
    assert_builds_like_reference(lambda: build(mode), depth)


def test_last_spacer_denominator_stays_off_the_stage_lattice():
    sched = BUILDS["last_spacer_alone"][0]("rational")
    assert sched.stage(1).denominator == 1
    assert sched.stage(1).h_next == Fraction(29, 7)  # offsets 0, 2, 3 and h = 1
    assert sched.stage(2).denominator == 7


sqrt2_spacers = st.builds(
    Sqrt2,
    st.fractions(min_value=0, max_value=3, max_denominator=6),
    st.fractions(min_value=0, max_value=2, max_denominator=5),
)


@st.composite
def explicit_builds(draw):
    mode = draw(st.sampled_from(["rational", "sqrt2"]))
    value = st.fractions(min_value=0, max_value=3, max_denominator=6)
    if mode == "sqrt2":
        value = st.one_of(value, sqrt2_spacers)
    entries = [
        (r, tuple(draw(st.lists(value, min_size=r, max_size=r))), draw(value))
        for r in draw(st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=3))
    ]
    h1 = draw(st.fractions(min_value=Fraction(1, 9), max_value=3, max_denominator=9))

    def build():
        def params(n, h, w):
            r, spacers, bottom = entries[min(n - 1, len(entries) - 1)]
            return r, spacers, bottom

        return Schedule(params, h1=h1, mode=mode)

    return build


@settings(max_examples=60, deadline=None)
@given(explicit_builds(), st.integers(min_value=1, max_value=4))
def test_lattice_build_matches_scalar_build_on_random_spacers(build, depth):
    assert_builds_like_reference(build, depth)


@pytest.mark.parametrize(
    "spacers",
    [(Sqrt2(1, -1), 0, 0), (0, 0, Sqrt2(-2, 1) - 1)],
    ids=["inner", "last"],
)
def test_negative_sqrt2_spacer_rejected(spacers):
    sched = Schedule(lambda n, h, w: (3, spacers), mode="sqrt2")
    with pytest.raises(ConfigurationError, match="negative spacer at stage 1"):
        sched.stage(1)
    # -1 + sqrt 2 > 0 although its rational part is negative
    assert Schedule(lambda n, h, w: (2, [Sqrt2(-1, 1)] * 2), mode="sqrt2").stage(2).h > 0


@pytest.mark.parametrize(("h1", "w1"), [(0, 1), (1, 0), (-1, 1), (Sqrt2(1, -1), 1)])
def test_base_data_must_be_positive(h1, w1):
    with pytest.raises(ConfigurationError, match="must be positive"):
        Schedule(lambda n, h, w: (2, [0, 0]), h1=h1, w1=w1, mode="sqrt2")


@pytest.mark.parametrize(
    ("mode", "h1", "spacer"),
    [("rational", 1, 2**40), ("sqrt2", Sqrt2(0, 1), Sqrt2(0, 2**40))],
)
def test_digit_budget_counts_every_height_component(monkeypatch, mode, h1, spacer):
    # h_2 = 2 h_1 + 2**41 (times sqrt 2 in the second case): 42 bits
    monkeypatch.setattr(schedule_module, "DIGIT_BUDGET", 32)
    sched = Schedule(lambda n, h, w: (2, [spacer] * 2), h1=h1, mode=mode)
    assert sched.stage(1).h == h1
    with pytest.raises(ResourceError, match=r"digit budget exceeded at stage 2: .* 42 bits, .* 32 bits"):
        sched.stage(4)


def test_tower_measure_is_one_plus_each_term_multiplied(small_asym, small_thm44, small_staircase):
    """mu(X_{N+1}) = mu(X_1) * prod_{n <= N} (1 + x_n) exactly, x_n the
    terms of the finiteness series: the measure is finite exactly when the
    series converges."""
    for sched in (small_asym, small_thm44, symmetrize(small_asym), small_staircase):
        sums = finiteness_test(sched, 6).partial_sums
        measure = sched.stage(1).measure
        for n, (before, after) in enumerate(zip([0, *sums], sums), start=1):
            measure = measure * (1 + (after - before))
            assert sched.stage(n + 1).measure == measure


def test_finiteness_terms_are_spacer_mass_over_tower_measure(small_asym, small_thm44):
    for sched in (small_asym, small_thm44, symmetrize(small_asym)):
        sums = finiteness_test(sched, 5).partial_sums
        total = 0
        for n, got in enumerate(sums, start=1):
            stage = sched.stage(n)
            mass = stage.bottom
            for v in stage.spacers:
                mass = mass + v
            total = total + mass / (stage.h * stage.r)
            assert_same_scalar(got, total)
