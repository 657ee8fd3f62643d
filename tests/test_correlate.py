import random
from fractions import Fraction

import pytest

from rank1flow import (
    Correlator,
    SQRT2,
    WeakLimitTarget,
    asym49_schedule,
    correlate,
    inner_product,
    m_correlate,
    oracle_correlate,
    oracle_m_correlate,
    pick_stage,
    random_step_function,
    thm44_schedule,
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
    """<U(t) f, g> is the 2-point joint moment of (f, conj g) at times
    (t, 0): the same recursion, so the values are equal exactly."""
    rng = random.Random(29)
    for sched in (flat3, small_asym):
        f, g = pair(sched, rng.randrange(10**6))
        for t in (0, Fraction(1, 2), -1):
            two = m_correlate(sched, [f, g.conjugate()], (t, 0))
            assert two.value == correlate(sched, f, g, t).value


def test_m_correlate_matches_oracle(small_asym):
    rng = random.Random(31)
    h = small_asym.height(1)
    fs = [random_step_function(1, h, 3, rng) for _ in range(3)]
    times = (0, Fraction(3, 2), -1)
    res = m_correlate(small_asym, fs, times)
    ref = oracle_m_correlate(small_asym, fs, times, stage=res.stage_used)
    assert abs(res.value - ref.value) <= res.error_bound + 1e-9


SQRT2_SCHEDULES = {
    "thm44": lambda: thm44_schedule(s_values=(2,), q_max=1, k_max=1, r_cap=6),
    "asym49-sqrt2": lambda: asym49_schedule(r_cap=16, mode="sqrt2"),
}


@pytest.mark.parametrize("name", sorted(SQRT2_SCHEDULES))
def test_m_correlate_matches_oracle_over_sqrt2(name):
    sched = SQRT2_SCHEDULES[name]()
    rng = random.Random(37)
    fs = [random_step_function(1, sched.height(1), 3, rng) for _ in range(3)]
    d = sched.stage(1).offsets[1]  # a copy offset, so that shifted copies meet
    values = []
    for times in ((0, Fraction(1, 4), Fraction(-1, 5)), (0, SQRT2 / 8, -SQRT2 / 5), (d + Fraction(1, 8), 0, Fraction(1, 3))):
        res = m_correlate(sched, fs, times)
        ref = oracle_m_correlate(sched, fs, times, stage=res.stage_used)
        assert abs(res.value - ref.value) <= res.error_bound + 1e-9
        values.append(res.value)
    assert all(abs(v) > 1e-3 for v in values)


def test_float_time_is_its_exact_binary_value(small_staircase, small_thm44):
    for sched in (small_staircase, small_thm44):
        f, g = pair(sched, 41)
        for t in (2.5, -0.1, 1 / 3):
            assert correlate(sched, f, g, t) == correlate(sched, f, g, Fraction(t))
            assert m_correlate(sched, [f, g, f], (0, t, -t)) == m_correlate(sched, [f, g, f], (0, Fraction(t), -Fraction(t)))


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
