"""Property-based checks of the core invariants."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from rank1flow import (
    Schedule,
    Sqrt2,
    correlate,
    inner_product,
    overlap_pairs,
    random_step_function,
    reflect,
    scalar_from_string,
    scalar_to_string,
    symmetrize,
)

small_nonneg = st.fractions(min_value=0, max_value=3, max_denominator=4)


@st.composite
def schedules(draw, max_stages=3, max_r=4):
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=2, max_value=max_r),
                st.lists(small_nonneg, min_size=max_r, max_size=max_r),
            ),
            min_size=1,
            max_size=max_stages,
        )
    )

    def params(n, h, w):
        r, spacers = entries[min(n - 1, len(entries) - 1)]
        return r, spacers[:r]

    return Schedule(params)


fractions_small = st.fractions(min_value=-4, max_value=4, max_denominator=8)
sqrt2_scalars = st.builds(
    Sqrt2,
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
)


@given(sqrt2_scalars)
def test_scalar_string_roundtrip(x):
    assert scalar_from_string(scalar_to_string(x)) == x


@given(sqrt2_scalars, sqrt2_scalars)
def test_sqrt2_ordering_is_total_and_exact(x, y):
    assert (x < y) + (x == y) + (x > y) == 1
    if x < y:
        assert float(x) <= float(y) + 1e-9


@settings(max_examples=40, deadline=None)
@given(schedules(), st.integers(min_value=1, max_value=4))
def test_offsets_increase_and_recurse(sched, depth):
    for n in range(1, depth + 1):
        stg = sched.stage(n)
        assert stg.offsets[0] == stg.bottom
        for j in range(1, stg.r):
            assert stg.offsets[j] == stg.offsets[j - 1] + stg.h + stg.spacers[j - 1]
            assert stg.offsets[j] > stg.offsets[j - 1]
        assert sched.stage(n + 1).measure >= stg.measure


@settings(max_examples=40, deadline=None)
@given(schedules(), fractions_small)
def test_overlap_deltas_bounded_and_symmetric(sched, shift):
    stg = sched.stage(2)
    pairs = overlap_pairs(stg, shift)
    assert all(abs(d) < stg.h for d, _ in pairs)
    neg = overlap_pairs(stg, -shift)
    assert sorted((-d, m) for d, m in neg) == pairs


@settings(max_examples=25, deadline=None)
@given(schedules(), st.integers(min_value=0, max_value=10**6))
def test_zero_time_recovers_inner_product(sched, seed):
    rng = random.Random(seed)
    h = sched.height(1)
    f = random_step_function(1, h, 3, rng)
    g = random_step_function(1, h, 3, rng)
    res = correlate(sched, f, g, 0)
    assert abs(res.value - inner_product(sched, f, g)) <= 1e-12
    assert res.error_bound == 0.0


@settings(max_examples=25, deadline=None)
@given(schedules(), st.integers(min_value=0, max_value=10**6), fractions_small)
def test_hermitian_symmetry_property(sched, seed, t):
    rng = random.Random(seed)
    h = sched.height(1)
    f = random_step_function(1, h, 3, rng)
    g = random_step_function(1, h, 3, rng)
    a = correlate(sched, f, g, t)
    b = correlate(sched, g, f, -t)
    assert abs(a.value - b.value.conjugate()) <= a.error_bound + b.error_bound + 1e-9


@settings(max_examples=20, deadline=None)
@given(schedules(), st.integers(min_value=0, max_value=10**6), fractions_small)
def test_reflection_identity_on_symmetrized(sched, seed, t):
    sym = symmetrize(sched)
    rng = random.Random(seed)
    h = sym.height(1)
    f = random_step_function(1, h, 3, rng)
    g = random_step_function(1, h, 3, rng)
    a = correlate(sym, f, g, t)
    b = correlate(sym, reflect(f), reflect(g), -t, stage=a.stage_used)
    assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=6))
def test_reflect_involution_property(seed, levels):
    rng = random.Random(seed)
    f = random_step_function(1, Fraction(3), levels, rng)
    rr = reflect(reflect(f))
    assert rr.breakpoints == f.breakpoints
    assert rr.values == f.values
