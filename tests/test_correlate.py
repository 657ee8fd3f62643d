import random
from fractions import Fraction

import pytest

from rank1flow import (
    Correlator,
    SQRT2,
    WeakLimitTarget,
    correlate,
    inner_product,
    m_correlate,
    oracle_correlate,
    oracle_m_correlate,
    pick_stage,
    random_step_function,
    weak_limit_probe,
)
from rank1flow.errors import RangeError


def pair(schedule, seed, stage=1, levels=4):
    rng = random.Random(seed)
    h = schedule.height(stage)
    return (
        random_step_function(stage, h, levels, rng),
        random_step_function(stage, h, levels, rng),
    )


def norm2(schedule, f):
    return inner_product(schedule, f, f).real ** 0.5


def test_zero_time_is_inner_product(flat2, flat3, small_asym, rng):
    for sched in (flat2, flat3, small_asym):
        f, g = pair(sched, rng.randrange(10**6))
        res = correlate(sched, f, g, 0)
        assert res.value == inner_product(sched, f, g)
        assert res.error_bound == 0.0


def test_hermitian_symmetry(small_staircase):
    f, g = pair(small_staircase, 7)
    for t in (Fraction(1, 2), 1, Fraction(-5, 4)):
        a = correlate(small_staircase, f, g, t)
        b = correlate(small_staircase, g, f, -t)
        assert abs(a.value - b.value.conjugate()) <= a.error_bound + b.error_bound + 1e-12


def test_cauchy_schwarz_with_slack(small_asym):
    f, g = pair(small_asym, 11)
    cap = norm2(small_asym, f) * norm2(small_asym, g)
    for t in (0, Fraction(3, 2), -2):
        res = correlate(small_asym, f, g, t)
        assert abs(res.value) <= cap + res.error_bound + 1e-12


def test_stage_stability(flat3, small_staircase, small_asym):
    rng = random.Random(5)
    for sched in (flat3, small_staircase, small_asym):
        f, g = pair(sched, rng.randrange(10**6))
        for _ in range(10):
            t = Fraction(rng.randrange(-8, 9), 4)
            n = pick_stage(sched, 1, abs(t))
            a = correlate(sched, f, g, t, stage=n)
            b = correlate(sched, f, g, t, stage=n + 2)
            assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-12


def test_correlator_memo_is_shared_across_times(flat2):
    f, g = pair(flat2, 1)
    corr = Correlator(flat2, f, g)
    half = corr.at(Fraction(1, 2))
    first = len(corr._memo)
    assert first > 0
    corr.at(Fraction(1, 2))
    assert len(corr._memo) == first  # warm queries add nothing
    # a time with a new denominator rescales the stored shifts onto a finer
    # lattice; the entries of 1/2 stay in the same memo and still hit
    third = corr.at(Fraction(1, 3))
    second = len(corr._memo)
    assert second > first
    assert corr.at(Fraction(1, 2)).value == half.value
    assert len(corr._memo) == second
    assert third.value == Correlator(flat2, f, g).at(Fraction(1, 3)).value


def test_oracle_agreement_spot_checks(flat2, flat3, small_staircase, small_asym, sym_flat3):
    rng = random.Random(13)
    for sched in (flat2, flat3, small_staircase, small_asym, sym_flat3):
        for _ in range(10):
            f, g = pair(sched, rng.randrange(10**6))
            t = Fraction(rng.randrange(-6, 7), 4)
            res = correlate(sched, f, g, t)
            ref = oracle_correlate(sched, f, g, t, stage=res.stage_used)
            assert abs(res.value - ref.value) <= res.error_bound + 1e-9


def test_oracle_agreement_sqrt2_times(small_thm44):
    rng = random.Random(17)
    f, g = pair(small_thm44, 23)
    for t in (SQRT2, 2 * SQRT2, Fraction(1, 2), 1 - SQRT2):
        res = correlate(small_thm44, f, g, t)
        ref = oracle_correlate(small_thm44, f, g, t, stage=res.stage_used)
        assert abs(res.value - ref.value) <= res.error_bound + 1e-9


def test_out_of_range_time_raises(flat2):
    f, g = pair(flat2, 2)
    with pytest.raises(RangeError):
        correlate(flat2, f, g, 10**25)


def test_mismatched_stages_rejected(flat2):
    f, _ = pair(flat2, 3, stage=1)
    g, _ = pair(flat2, 3, stage=2)
    with pytest.raises(RangeError):
        correlate(flat2, f, g, 0)


def test_m_correlate_two_points_equals_correlate(flat3, small_asym):
    rng = random.Random(29)
    for sched in (flat3, small_asym):
        f, g = pair(sched, rng.randrange(10**6))
        for t in (0, Fraction(1, 2), -1):
            two = m_correlate(sched, [g, f], (0, t))
            # <U(t) f, g-bar> with unconjugated product: match via the
            # conjugate of g in the two-point integral
            gb = g.scaled(1)
            gb.values[:] = [complex(v).conjugate() for v in g.values]
            two2 = m_correlate(sched, [gb, f], (0, t))
            one = correlate(sched, f, g, t)
            assert abs(two2.value - one.value) <= two2.error_bound + one.error_bound + 1e-12


def test_m_correlate_matches_oracle(small_asym):
    rng = random.Random(31)
    h = small_asym.height(1)
    fs = [random_step_function(1, h, 3, rng) for _ in range(3)]
    times = (0, Fraction(3, 2), -1)
    res = m_correlate(small_asym, fs, times)
    ref = oracle_m_correlate(small_asym, fs, times, stage=res.stage_used)
    assert abs(res.value - ref.value) <= res.error_bound + 1e-9


def test_weak_limit_probe_identity_at_zero(flat2):
    fam = [pair(flat2, s) for s in (1, 2)]
    probe = weak_limit_probe(flat2, [0], WeakLimitTarget(alpha=1), fam, threshold=1e-12)
    assert probe.final_residual <= 1e-12
    assert probe.final_below


def test_weak_limit_probe_reports_all_times(flat2):
    fam = [pair(flat2, 4)]
    probe = weak_limit_probe(flat2, [0, Fraction(1, 2), 1], WeakLimitTarget(alpha=1), fam)
    assert len(probe.residuals) == 3
    assert len(probe.bounds) == 3
    assert probe.final_below is None
