import random
from fractions import Fraction

import pytest

from rank1flow import (
    StepFunction,
    indicator,
    lift,
    product_integral,
    random_level_set,
    random_step_function,
    reflect,
)
from rank1flow.errors import ConfigurationError


def test_breakpoints_must_increase():
    with pytest.raises(ConfigurationError):
        StepFunction(1, [0, 1, 1], [1 + 0j, 2 + 0j])


def test_indicator_evaluation():
    f = indicator(1, 4, 1, 3)
    assert f(0) == 0
    assert f(1) == 1
    assert f(Fraction(5, 2)) == 1
    assert f(3) == 0
    assert f(4) == 0  # outside support


def cross_correlation(f, g, tau):
    """int f(y + tau) conj(g(y)) dy: the product integral of (f, conj g)
    at shifts (-tau, 0)."""
    return product_integral([f, g.conjugate()], [-tau, 0])


def test_cross_correlation_zero_shift_is_inner_integral():
    f = indicator(1, 4, 0, 2)
    g = indicator(1, 4, 1, 3)
    assert cross_correlation(f, g, 0) == pytest.approx(1.0)


def test_cross_correlation_shift_moves_support():
    f = indicator(1, 4, 0, 1)
    g = indicator(1, 4, 2, 3)
    # f(y + tau) overlaps g on [2, 3) when tau = -2
    assert cross_correlation(f, g, -2) == pytest.approx(1.0)
    assert cross_correlation(f, g, 0) == 0j


def test_cross_correlation_conjugates_g():
    f = indicator(1, 2, 0, 2)
    g = StepFunction(1, [0, 2], [1j])
    assert g.conjugate().values == [-1j]
    assert cross_correlation(f, g, 0) == pytest.approx(-2j)


def test_product_integral_matches_pairwise():
    rng = random.Random(3)
    f = random_step_function(1, 4, 4, rng)
    g = random_step_function(1, 4, 4, rng)
    two = product_integral([f, g], [0, Fraction(1, 2)])
    # product_integral multiplies plain values; the cross-correlation
    # conjugates its second function, so it is given conj(g)
    ref = cross_correlation(f, g.conjugate(), Fraction(1, 2))
    assert two == pytest.approx(ref)


def test_reflect_is_involution(rng):
    for _ in range(20):
        f = random_step_function(1, 4, 5, rng)
        rr = reflect(reflect(f))
        assert rr.breakpoints == f.breakpoints
        assert rr.values == f.values


def test_reflect_fixes_palindromes():
    f = StepFunction(1, [0, 1, 2, 3], [2 + 0j, 5 + 0j, 2 + 0j])
    r = reflect(f)
    assert r.breakpoints == f.breakpoints
    assert r.values == f.values


def test_reflect_preserves_norms(rng):
    f = random_step_function(1, 4, 5, rng)
    r = reflect(f)
    assert r.sup_norm == f.sup_norm
    assert r.norm2_sq_unweighted() == pytest.approx(f.norm2_sq_unweighted())


def test_reflect_at_deeper_stage_lifts_first(flat2):
    f = indicator(1, 1, 0, Fraction(1, 2))
    r = reflect(f, flat2, 3)
    assert r.stage == 3
    assert r.height == flat2.height(3)
    # the lifted support reflected: copies of [0, 1/2) at offsets 0,1,2,3
    # become copies of [1/2, 1) shifted to the top
    assert r(Fraction(1, 4)) == 0
    assert r(Fraction(3, 4)) == 1


def test_reflect_at_deeper_stage_needs_schedule():
    f = indicator(1, 1, 0, Fraction(1, 2))
    with pytest.raises(ConfigurationError):
        reflect(f, stage=3)


def test_lift_preserves_masses(flat3):
    rng = random.Random(1)
    f = random_step_function(1, 1, 4, rng)
    F = lift(flat3, f, 3)
    # 9 copies of f inside stage 3, nothing else
    assert F.stage == 3
    assert F.mean_unweighted() == pytest.approx(9 * f.mean_unweighted())
    assert F.norm2_sq_unweighted() == pytest.approx(9 * f.norm2_sq_unweighted())


def test_lift_downward_rejected(flat3):
    f = indicator(2, flat3.height(2), 0, 1)
    with pytest.raises(ConfigurationError):
        lift(flat3, f, 1)


def test_random_level_set_is_indicator(rng):
    a = random_level_set(1, 4, 4, rng)
    assert set(a.values) <= {0j, 1 + 0j}
    assert any(v == 1 for v in a.values)


def test_step_function_json_roundtrip(rng):
    f = random_step_function(1, Fraction(7, 2), 5, rng)
    back = StepFunction.from_json(f.to_json())
    assert back.breakpoints == f.breakpoints
    assert back.values == f.values
