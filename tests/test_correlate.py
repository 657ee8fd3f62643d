import importlib
import itertools
import math
import random
import re
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rank1flow import (
    SQRT2,
    Correlator,
    MCorrelator,
    Schedule,
    StepFunction,
    WeakLimitTarget,
    asym49_schedule,
    correlate,
    flat_schedule,
    inner_product,
    oracle_correlate,
    oracle_m_correlate,
    pick_stage,
    product_integral,
    random_step_function,
    staircase34_schedule,
    symmetrize,
    thm44_schedule,
    weak_limit_probe,
)
from rank1flow import schedule as schedule_module
from rank1flow.correlate import perturbation_bound
from rank1flow.errors import RangeError, ResourceError
from rank1flow.experiments import backward_candidates, forward_level_sets, run_experiment
from rank1flow.scalars import Sqrt2, exact, to_float
from rank1flow.stepfun import _ARRAY_MIN_ROWS

correlate_module = importlib.import_module("rank1flow.correlate")  # the package exports a function of that name


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
            (n,) = pick_stage(sched, 1, [abs(t)])
            a = correlate(sched, f, g, t, stage=n)
            b = correlate(sched, f, g, t, stage=n + 2)
            assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-12


def record_passes(monkeypatch) -> list:
    """Spy on :meth:`MCorrelator._B`: the (lattice, levels) of every pass,
    one per :meth:`at` call that needs a value, in call order."""
    passes, original = [], MCorrelator._B

    def spy(self, wanted, lattice):
        levels = original(self, wanted, lattice)
        passes.append((lattice, levels))
        return levels

    monkeypatch.setattr(MCorrelator, "_B", spy)
    return passes


@pytest.fixture()
def passes(monkeypatch):
    return record_passes(monkeypatch)


def python(values) -> list:
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


def memos(levels) -> list:
    """A call's levels as one memo per member, n -> {key: B_n}, in Python
    scalars: an array frontier's keys as ints, its values as complex."""
    return [
        {n: dict(zip(python(xs), python(values[i]))) for n, (xs, values) in levels.items()}
        for i in range(len(next(iter(levels.values()))[1]))
    ]


def memo_size(levels):
    """Entries of a call's memo, its keys summed over stages."""
    return sum(len(xs) for xs, _ in levels.values())


def key_kinds(levels, pair=True) -> set:
    """The types of a call's keys: int on an int lattice, tuple (an (a, b)
    pair) on a Q(sqrt 2) one; at m >= 3, of each key's first shift.  A
    list frontier gives the types of its entries, so an np.int64 among
    them shows; an array frontier must be int64, and gives int."""
    kinds = set()
    for xs, values in levels.values():
        if isinstance(xs, np.ndarray):
            assert xs.dtype == np.int64 and xs.ndim == 1
            kinds.add(int)
        else:
            kinds.update(type(x if pair else x[0]) for x in xs)
        assert all(len(v) == len(xs) for v in values)
    return kinds


def test_correlator_memo_is_shared_across_times(flat2, passes):
    """The times of one call share its memo, and each call has a memo and
    a lattice of its own: a repeated time adds no entry, and a time with a
    new denominator puts its call on a finer lattice."""
    f, g = pair(flat2, 1)
    corr = Correlator(flat2, [(f, g)])
    half = corr.at([Fraction(1, 2)])[0][0]
    first = memo_size(passes[-1][1])
    assert first > 0
    corr.at([Fraction(1, 2), Fraction(1, 2)])
    assert memo_size(passes[-1][1]) == first  # a repeated time adds nothing
    both = corr.at([Fraction(1, 2), Fraction(1, 3)])[0]
    second = memo_size(passes[-1][1])
    assert second > first
    assert passes[-1][0].scale > passes[0][0].scale  # a finer lattice
    assert corr.at([Fraction(1, 2)])[0][0].value == half.value == both[0].value
    assert memo_size(passes[-1][1]) == first and passes[-1][0] == passes[0][0]  # nothing kept
    third = corr.at([Fraction(1, 3)])[0][0]
    assert third.value == Correlator(flat2, [(f, g)]).at([Fraction(1, 3)])[0][0].value == both[1].value
    assert all(key_kinds(levels) == {int} for _, levels in passes)


def test_oracle_agreement_spot_checks(flat2, flat3, small_staircase, small_asym, sym_flat3):
    rng = random.Random(13)
    for sched in (flat2, flat3, small_staircase, small_asym, sym_flat3):
        for _ in range(10):
            f, g = pair(sched, rng.randrange(10**6))
            t = Fraction(rng.randrange(-6, 7), 4)
            res = correlate(sched, f, g, t)
            ref = oracle_correlate(sched, f, g, t, stage=res.stage_used)
            assert abs(res.value - ref) <= res.error_bound + 1e-9


def test_oracle_agreement_sqrt2_times(small_thm44):
    rng = random.Random(17)
    f, g = pair(small_thm44, 23)
    for t in (SQRT2, 2 * SQRT2, Fraction(1, 2), 1 - SQRT2):
        res = correlate(small_thm44, f, g, t)
        ref = oracle_correlate(small_thm44, f, g, t, stage=res.stage_used)
        assert abs(res.value - ref) <= res.error_bound + 1e-9


def test_out_of_range_time_raises(flat2):
    f, g = pair(flat2, 2)
    with pytest.raises(RangeError):
        correlate(flat2, f, g, 10**25)


def linear_pick_stage(schedule, k, t_abs):
    """pick_stage by its definition: the first stage from k up to MAX_STAGE
    with h_N >= STAGE_MARGIN * (h_k + |t|)."""
    need = correlate_module.STAGE_MARGIN * (schedule.height(k) + t_abs)
    for n in range(k, correlate_module.MAX_STAGE + 1):
        if not schedule.height(n) < need:
            return n
    raise RangeError(f"|t| = {float(t_abs):g} out of range")


STAGE_BUILDERS = {
    "flat": lambda: flat_schedule(3),
    "staircase34": lambda: staircase34_schedule(staircase_stages=(2, 3), base=4, r_cap=16),
    "asym49": lambda: asym49_schedule(r_cap=16),
    "asym49-sqrt2": lambda: asym49_schedule(r_cap=16, mode="sqrt2"),
    "thm44": lambda: thm44_schedule(s_values=(2,), q_max=1, k_max=1, r_cap=6),
    "symmetrized-flat": lambda: symmetrize(flat_schedule(3)),
}


def stage_probe_times(schedule, k, rng):
    """|t| at and one unit either side of each stage's threshold up to k + 4,
    random rationals and multiples of sqrt 2 below the last one, and 0."""
    margin = correlate_module.STAGE_MARGIN
    edges = [schedule.height(n) / margin - schedule.height(k) for n in range(k, k + 5)]
    top = float(edges[-1])
    times = [0, *edges, *(e + Fraction(1, 10**9) for e in edges), *(e - Fraction(1, 10**9) for e in edges[1:])]
    times += [Fraction(rng.randrange(int(64 * top)), 64) for _ in range(30)]
    times += [rng.randrange(int(8 * top / 1.5)) * SQRT2 / 8 for _ in range(10)]
    return [t for t in times if t >= 0]


@pytest.mark.parametrize("order", ["increasing", "decreasing", "shuffled"])
@pytest.mark.parametrize("name", list(STAGE_BUILDERS))
def test_cached_pick_stage_matches_its_definition(name, order):
    """The threshold list of one call, bisected, gives the linear search's
    stage for every |t| and k, in any order of the times; with MAX_STAGE
    lowered, both raise RangeError for the deeper stages, and a call
    names its first time past MAX_STAGE.  An empty call raises nothing."""
    rng = random.Random(f"{name}-{order}")
    sched, reference = STAGE_BUILDERS[name](), STAGE_BUILDERS[name]()
    probes = {k: stage_probe_times(reference, k, rng) for k in (1, 2)}
    for k, times in probes.items():
        if order == "shuffled":
            rng.shuffle(times)
        else:
            times.sort(key=float, reverse=order == "decreasing")
        picked = pick_stage(sched, k, times)
        assert picked == [linear_pick_stage(reference, k, t) for t in times]
        assert k + 4 in picked and k + 5 in picked
    assert pick_stage(sched, correlate_module.MAX_STAGE + 1, []) == []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(correlate_module, "MAX_STAGE", 4)
        for k, times in probes.items():
            far = []
            for t in times:
                try:
                    expected = linear_pick_stage(reference, k, t)
                except RangeError:
                    far.append(t)
                    with pytest.raises(RangeError, match="no stage up to 4"):
                        pick_stage(sched, k, [t])
                else:
                    assert pick_stage(sched, k, [t]) == [expected] and expected <= 4
            named = re.escape(f"|t| = {float(far[0]):g} out of range: no stage up to 4")
            with pytest.raises(RangeError, match=f"^{named}"):
                pick_stage(sched, k, times)


BUILT = {}  # name -> (schedule, reference): stages are built once per session


def built(name):
    if name not in BUILT:
        BUILT[name] = STAGE_BUILDERS[name](), STAGE_BUILDERS[name]()
    return BUILT[name]


def near_threshold(u, kind: str, refine: int, unit: int, axis: int):
    """A lattice and coordinates on it at one lattice unit *unit* (-1, 0
    or 1) from the threshold u: on u's own lattice, *refine* times finer
    (a pair lattice for a Sqrt2 u, the unit added to its a or, by *axis*,
    its b); or on the int lattice of scale *refine*, at floor(u * scale)
    + unit, which is u itself where u * scale is an int."""
    Lattice = schedule_module.Lattice
    if kind == "own":
        lattice = Lattice.holding([u])
        lattice = Lattice(lattice.scale * refine, lattice.sqrt2)
        x = lattice.encode(u)
        return lattice, (x + unit if type(x) is int else (x[0] + unit * (1 - axis), x[1] + unit * axis))
    return Lattice(refine, False), math.floor(u * refine) + unit


@settings(max_examples=400, deadline=None)
@given(
    name=st.sampled_from(list(STAGE_BUILDERS)),
    k=st.integers(1, 2),
    above=st.integers(0, 4),
    kind=st.sampled_from(["own", "int", "array", "float"]),
    refine=st.sampled_from([1, 3, 2**10, 10**6]),
    unit=st.integers(-1, 1),
    axis=st.integers(0, 1),
)
def test_the_pick_on_lattice_coordinates_matches_its_definition(name, k, above, kind, refine, unit, axis):
    """pick_stage on lattice coordinates is the linear search's stage at
    each threshold u_N and one lattice unit either side: on u_N's own
    lattice (ints, or pairs over Q(sqrt 2)), on int lattices, as ints and
    as an int64 array (the searchsorted route), also against
    the irrational thresholds of thm44 and asym49 in sqrt2 mode (the
    reflection check's case, a rational |t| on a Q(sqrt 2) schedule), and
    at float |t| one ulp either side of float(u_N).  Scalars passed
    without a lattice take the same rule."""
    sched, reference = built(name)
    margin = correlate_module.STAGE_MARGIN
    u = reference.height(k + above) / margin - reference.height(k)
    if kind == "float":
        t = float(u)
        t = math.nextafter(t, math.inf) if unit > 0 else math.nextafter(t, -math.inf) if unit < 0 else t
        if t < 0:
            return
        assert pick_stage(sched, k, [t]) == [linear_pick_stage(reference, k, exact(t))]
        return
    lattice, x = near_threshold(u, kind, refine, unit, axis)
    t = lattice.decode(x)
    if t < 0:
        return
    expected = linear_pick_stage(reference, k, t)
    if kind == "array":
        assert x < 2**53 and pick_stage(sched, k, np.array([x], dtype=np.int64), lattice).tolist() == [expected]
        return
    assert pick_stage(sched, k, [x], lattice) == [expected]
    assert pick_stage(sched, k, [t]) == [expected]


def test_the_pick_meets_irrational_thresholds_on_int_lattices():
    """A rational |t| on thm44 sits on an int lattice while every
    threshold past stage k is irrational: floor(u_N D) and floor(u_N D) + 1
    pick the two stages either side of u_N."""
    sched, reference = built("thm44")
    Lattice = schedule_module.Lattice
    for n in range(2, 6):
        u = reference.height(n) / correlate_module.STAGE_MARGIN - reference.height(1)
        assert isinstance(u, Sqrt2) and u.b != 0
        for scale in (1, 7, 10**6):
            below = math.floor(u * scale)
            picked = pick_stage(sched, 1, [below, below + 1], Lattice(scale, False))
            assert picked == [n, n + 1] == [linear_pick_stage(reference, 1, Fraction(x, scale)) for x in (below, below + 1)]


SPIED = ("__lt__", "__abs__", "__neg__", "__mul__")


def test_a_batch_takes_no_scalar_arithmetic_per_time(monkeypatch):
    """Correlator.at on asym49 makes as many Fraction comparisons,
    magnitudes, negations and products at 41 times i/20 as at 321: each
    time is encoded once, and the pick, the shifts and the bound's |t|
    read its lattice coordinates.  Each value is the one a
    call at that time alone gives, repr for repr."""
    sched = asym49_schedule()
    f, _ = pair(sched, 0)
    corr = Correlator(sched, [(f, f)])
    batches = {n: [i / 20 for i in range(n)] for n in (41, 321)}
    corr.at(batches[321])  # builds every stage the picks read
    counts = {}
    for n, times in batches.items():
        calls = Counter()
        with monkeypatch.context() as patch:
            for name in SPIED:
                original = getattr(Fraction, name)
                patch.setattr(Fraction, name, lambda *args, _f=original, _n=name: calls.update([_n]) or _f(*args))
            (batch,) = corr.at(times)
        counts[n] = calls
        assert repr(batch) == repr([corr.at([t])[0][0] for t in times])
    assert counts[41] == counts[321]


SQRT2_FAR = SQRT2 * 10**20  # |t| past what flat r = 2 holds up to stage 64 (h_64 = 2**63)
SQRT2_HUGE = SQRT2 * 10**400  # |t| past float range
FAR = re.escape("|t| = 1.41421e+20 out of range: no stage up to 64 is tall enough")
HUGE = re.escape(f"|t| = 0+1{'0' * 400}*sqrt2 is past float range")


@pytest.mark.parametrize(
    "times, stage, message",
    [
        ([Fraction(1, 2), SQRT2_FAR], None, FAR),
        ([Fraction(1, 2), SQRT2_HUGE], None, HUGE),
        ([Fraction(1, 2), SQRT2_HUGE], 5, HUGE),
    ],
    ids=["past-max-stage", "past-float-range", "past-float-range-at-a-given-stage"],
)
def test_sqrt2_times_out_of_range_raise_as_before(times, stage, message):
    """A Q(sqrt 2) |t| that no stage up to MAX_STAGE holds, or past float
    range, raises the RangeError it raised when |t| was a scalar, through
    the 2-point and the 3-point correlator."""
    f, g = pair(flat_schedule(2), 2)
    with pytest.raises(RangeError, match=f"^{message}$"):
        Correlator(flat_schedule(2), [(f, g)]).at(times, stage)
    with pytest.raises(RangeError, match=f"^{message}$"):
        MCorrelator(flat_schedule(2), [(f, g, f)]).at([(0, 1, t) for t in times], stage)


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
            two = MCorrelator(sched, [[f, g.conjugate()]]).at([(t, 0)])[0][0]
            assert two.value == correlate(sched, f, g, t).value


def test_m_correlate_matches_oracle(small_asym):
    rng = random.Random(31)
    h = small_asym.height(1)
    fs = [random_step_function(1, h, 3, rng) for _ in range(3)]
    times = (0, Fraction(3, 2), -1)
    res = MCorrelator(small_asym, [fs]).at([times])[0][0]
    ref = oracle_m_correlate(small_asym, fs, times, stage=res.stage_used)
    assert abs(res.value - ref) <= res.error_bound + 1e-9


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
        res = MCorrelator(sched, [fs]).at([times])[0][0]
        ref = oracle_m_correlate(sched, fs, times, stage=res.stage_used)
        assert abs(res.value - ref) <= res.error_bound + 1e-9
        values.append(res.value)
    assert all(abs(v) > 1e-3 for v in values)


def test_float_time_is_its_exact_binary_value(small_staircase, small_thm44):
    for sched in (small_staircase, small_thm44):
        f, g = pair(sched, 41)
        for t in (2.5, -0.1, 1 / 3):
            assert correlate(sched, f, g, t) == correlate(sched, f, g, Fraction(t))
            assert MCorrelator(sched, [[f, g, f]]).at([(0, t, -t)])[0][0] == MCorrelator(sched, [[f, g, f]]).at([(0, Fraction(t), -Fraction(t))])[0][0]


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


def test_weak_limit_probe_keeps_a_nan_residual(flat2):
    fam = [pair(flat2, s) for s in (1, 2)]
    probe = weak_limit_probe(flat2, [1], WeakLimitTarget(alpha=complex("nan")), fam, threshold=0.5)
    assert math.isnan(probe.final_residual) and probe.final_below is False
    probe = weak_limit_probe(flat2, [1], WeakLimitTarget(beta=complex("nan"), s=1), fam, threshold=0.5)
    assert math.isnan(probe.final_residual) and math.isnan(probe.bounds[0]) and probe.final_below is False


def test_perturbation_bound_single_factor_is_exact():
    for v, e in ((0.1, 0.3), (0.7, 1e-17), (-2.5, 0.125)):
        assert perturbation_bound([abs(v)], [e]) == e


def test_perturbation_bound_covers_every_corner():
    rng = random.Random(3)
    for m in range(1, 5):
        values = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(m)]
        bounds = [rng.uniform(0, 0.5) for _ in range(m)]
        bound = perturbation_bound([abs(v) for v in values], bounds)
        exact = math.prod(values)
        for signs in itertools.product((-1, 1), repeat=m):
            moved = math.prod(v + s * e * v / abs(v) for v, s, e in zip(values, signs, bounds))
            assert abs(moved - exact) <= bound + 1e-12
        # the all-outward corner attains it
        outward = math.prod(v + e * v / abs(v) for v, e in zip(values, bounds))
        assert abs(outward - exact) == pytest.approx(bound)


def test_perturbation_bound_of_many_equal_factors_is_one_pass():
    """10**5 equal factors, as a large multiplicity repeats one, in well
    under a second; the bound is prod(1 + e) - 1."""
    started = time.perf_counter()
    bound = perturbation_bound([1.0] * 10**5, [1e-7] * 10**5)
    assert time.perf_counter() - started < 1.0
    assert bound == pytest.approx(math.expm1(10**5 * math.log1p(1e-7)), rel=1e-9)


# the level loop's two paths, on fresh schedules (cached overlaps skip the
# guard): the NumPy sweep of a batch of shifts (a staircase with r = 64 at
# stage 3, queried at stage 4) and one Python sweep per shift (small cut
# numbers, or Q(sqrt 2) pairs)
SCHEDULES = {
    "wide_staircase": lambda: staircase34_schedule(staircase_stages=(2, 3), base=4, r_cap=64),
    "flat3": lambda: flat_schedule(3),
    "thm44": lambda: thm44_schedule(s_values=(2,), q_max=1, k_max=1, r_cap=6),
}


@pytest.mark.parametrize(
    "schedule, stage, guard, message, batched",
    [
        ("wide_staircase", 4, 39, "memo blowup near stage 1: more than 39 distinct shifts", True),
        ("wide_staircase", 4, 19, "overlap blowup at stage 3: more than 19 deltas", True),
        ("flat3", 4, 6, "memo blowup near stage 1: more than 6 distinct shifts", False),
        ("flat3", 4, 1, "overlap blowup at stage 3: more than 1 deltas", False),
        ("thm44", None, 2, "memo blowup near stage 2: more than 2 distinct shifts", False),
        ("thm44", None, 1, "overlap blowup at stage 2: more than 1 deltas", False),
    ],
    ids=["memo-batched", "overlap-batched", "memo-per-shift", "overlap-per-shift", "memo-sqrt2", "overlap-sqrt2"],
)
def test_guards_name_stage_and_count(monkeypatch, numpy_batches, passes, schedule, stage, guard, message, batched):
    sched = SCHEDULES[schedule]()
    f, g = pair(sched, 1)
    t = Fraction(-7, 3)
    default = schedule_module.GUARD
    monkeypatch.setattr(schedule_module, "GUARD", guard)
    with pytest.raises(ResourceError, match=f"^{message}$"):
        Correlator(sched, [(f, g)]).at([t], stage=stage)[0][0]
    assert bool(numpy_batches) == batched
    with pytest.raises(ResourceError, match=f"^{message}$"):
        Correlator(SCHEDULES[schedule](), [(f, g), (g, f), (f, f)]).at([t], stage=stage)
    # each guard sits one below the count it meets (20 deltas at the top
    # of the staircase, 2 on flat3 and thm44, or the memo the query
    # needs), and a guard of the memo's size lets the query through
    monkeypatch.setattr(schedule_module, "GUARD", default)
    corr = Correlator(sched, [(f, g)])
    value = corr.at([t], stage=stage)[0][0].value
    size = memo_size(passes[-1][1])
    assert message.startswith("overlap") or size == guard + 1
    monkeypatch.setattr(schedule_module, "GUARD", size)
    assert Correlator(sched, [(f, g)]).at([t], stage=stage)[0][0].value == value
    # a family's memo guard counts each key once, not once per member
    assert Correlator(sched, [(g, f), (f, g)]).at([t], stage=stage)[1][0].value == value


def test_m_point_step_follows_the_guard(monkeypatch, passes):
    """GUARD also bounds the delta vectors of one m-tuple step; the query
    below needs 9 memo entries and 2 levels: 1 shift tuple at stage 2 with
    4 delta vectors, and 4 at stage 1 with 5 delta vectors in all, at most
    3 for one tuple.  The schedule keeps no step: asked again, a level is
    taken again."""
    steps = []
    original = schedule_module.tuple_overlaps

    def spy(stage, shifts):
        steps.append((stage.n, tuple(shifts), original(stage, shifts)))
        return steps[-1][2]

    monkeypatch.setattr(schedule_module, "tuple_overlaps", spy)
    f, g = pair(asym49_schedule(r_cap=16), 3)
    times = (0, Fraction(7, 3), Fraction(-5, 2))
    sched = asym49_schedule(r_cap=16)
    corr = MCorrelator(sched, [[f, g, f]])
    value = corr.at([times])[0][0].value
    lattice, call = passes[-1]
    levels = {n: (xs, level) for n, xs, level in steps}
    assert (memo_size(call), len(steps)) == (9, 2)
    assert {n: [len(groups) for groups in level] for n, (_, level) in levels.items()} == {2: [4], 1: [1, 1, 0, 3]}
    monkeypatch.setattr(schedule_module, "GUARD", 2)
    with pytest.raises(ResourceError, match="^m-tuple delta blowup at stage 2: more than 2 delta vectors$"):
        MCorrelator(asym49_schedule(r_cap=16), [[f, g, f]]).at([times])
    # both steps are taken before the memo trips
    monkeypatch.setattr(schedule_module, "GUARD", 5)
    steps.clear()
    with pytest.raises(ResourceError, match="^memo blowup near stage 1: more than 5 distinct shifts$"):
        MCorrelator(asym49_schedule(r_cap=16), [[f, g, f]]).at([times])
    assert [n for n, _, _ in steps] == [2, 1]
    # with room for 4 delta vectors, each level is taken whenever asked for
    monkeypatch.setattr(schedule_module, "GUARD", 4)
    fresh = asym49_schedule(r_cap=16)
    for n, (xs, reference) in levels.items():
        first = fresh.tuple_overlaps(n, list(xs), lattice)
        again = fresh.tuple_overlaps(n, list(xs), lattice)
        assert again is not first
        assert [list(step) for step in first] == [list(step) for step in again] == [list(step) for step in reference]
    # the 2-point step keeps its own guard
    monkeypatch.setattr(schedule_module, "GUARD", 3)
    with pytest.raises(ResourceError, match="^overlap blowup at stage 3: more than 3 deltas$"):
        Correlator(fresh, [(f, g)]).at([times[1]], stage=4)
    monkeypatch.setattr(schedule_module, "GUARD", 9)
    assert MCorrelator(asym49_schedule(r_cap=16), [[f, g, f]]).at([times])[0][0].value == value


@pytest.mark.parametrize("name", ["asym49", "thm44"])
def test_one_schedule_serves_two_and_three_point_steps(monkeypatch, name):
    """A 2-point and a 3-point correlator on one schedule take their steps
    on the same lattices, in either order of queries, and give the values
    of correlators on fresh schedules, bit for bit."""
    make = (lambda: asym49_schedule(r_cap=16)) if name == "asym49" else SCHEDULES["thm44"]
    f, g = pair(make(), 3)
    times = [*ORDER_TIMES, *([SQRT2 - Fraction(3, 2)] if name == "thm44" else [])]
    lattices = {"overlaps": set(), "tuple_overlaps": set()}
    for method, seen in lattices.items():

        def spy(sched, n, shifts, lattice, original=getattr(Schedule, method), seen=seen):
            seen.add((n, lattice))
            return original(sched, n, shifts, lattice)

        monkeypatch.setattr(Schedule, method, spy)

    def values(two_point, three_point, two_first):
        two, three = Correlator(two_point, [(f, g)]), MCorrelator(three_point, [[f, g, f]])
        queries = [lambda t: two.at([t])[0][0], lambda t: three.at([(0, t, -t / 2)])[0][0]]
        return [repr(query(t).value) for query in queries[:: 1 if two_first else -1] for t in times]

    for two_first in (True, False):
        for seen in lattices.values():
            seen.clear()
        shared = make()
        on_shared = values(shared, shared, two_first)
        assert lattices["overlaps"] & lattices["tuple_overlaps"]
        assert on_shared == values(make(), make(), two_first)


def depth_first(corr, lattice, n, x, memo):
    """B_n(x) by the depth-first recursion the level loop replaced, on the
    lattice of a call: each value summed over its step in the same order."""
    if (n, x) not in memo:
        if n == corr.k:
            zero = (0, 0) if lattice.sqrt2 else 0
            v = product_integral(corr.family[0], (zero, x) if corr._pair else (zero, *x), lattice)
        else:
            v = 0j
            step = corr._step(n - 1, [x], lattice)
            # an array step of the one shift: (counts, keys, index, mults)
            pairs = zip(np.asarray(step[1])[step[2]].tolist(), step[3].tolist()) if type(step) is tuple else step[0]
            for d, mult in pairs:
                v += mult * depth_first(corr, lattice, n - 1, d, memo)
        memo[n, x] = v
    return memo[n, x]


# times whose denominators 3, 2, 4, 7 put each query on a new lattice
ORDER_TIMES = [Fraction(-7, 3), Fraction(1, 2), Fraction(5, 4), Fraction(-2, 7), Fraction(9, 14)]


def correlators(name):
    """(make a fresh correlator, query it at a time) for each path."""
    if name == "triple":
        sched = asym49_schedule(r_cap=16)
        fs = [*pair(sched, 3), pair(sched, 4)[0]]
        return (lambda: MCorrelator(sched, [fs])), (lambda c, t: c.at([(0, t, -t / 2)])[0][0])
    sched = SCHEDULES["wide_staircase" if name == "batched" else "thm44"]()
    f, g = pair(sched, 2)
    stage = 4 if name == "batched" else None
    return (lambda: Correlator(sched, [(f, g)])), (lambda c, t: c.at([t], stage=stage)[0][0])


@pytest.mark.parametrize("name", ["batched", "sqrt2", "triple"])
def test_query_order_does_not_change_values(numpy_batches, name):
    make, query = correlators(name)
    fresh = [repr(query(make(), t).value) for t in ORDER_TIMES]
    forward, backward = make(), make()
    assert [repr(query(forward, t).value) for t in ORDER_TIMES] == fresh
    assert [repr(query(backward, t).value) for t in ORDER_TIMES[::-1]] == fresh[::-1]
    assert bool(numpy_batches) == (name == "batched")


def family_correlator(name, seeds):
    """A correlator with one member per seed on a fresh schedule of a
    :func:`correlators` path, and its query at one time."""
    if name == "triple":
        sched = asym49_schedule(r_cap=16)
        family = [[*pair(sched, seed), pair(sched, seed + 1)[0]] for seed in seeds]
        return MCorrelator(sched, family), (lambda c, t: c.at([(0, t, -t / 2)]))
    sched = SCHEDULES["wide_staircase" if name == "batched" else "thm44"]()
    stage = 4 if name == "batched" else None
    return Correlator(sched, [pair(sched, seed) for seed in seeds]), (lambda c, t: c.at([t], stage=stage))


@pytest.mark.parametrize("name", ["batched", "sqrt2", "triple"])
def test_a_family_takes_one_step_per_stage_per_batch(monkeypatch, name):
    """One frontier and one step per stage serve a whole family: batch by
    batch, a family of three takes the steps each of its members takes
    alone (the staircase's array levels, thm44's list levels, asym49's
    3-point levels), at most one per stage, and gives each member the
    values of its one-member correlator, repr for repr."""
    steps = []
    for route in ("overlap_batch", "tuple_overlaps"):
        original = getattr(schedule_module, route)

        def spy(stage, shifts, route=route, original=original):
            steps.append((route, stage.n))
            return original(stage, shifts)

        monkeypatch.setattr(schedule_module, route, spy)

    def history(seeds):
        """(the steps, the value reprs of each member) per batch of ORDER_TIMES."""
        corr, query = family_correlator(name, seeds)
        batches = []
        for t in ORDER_TIMES:
            steps.clear()
            results = query(corr, t)
            batches.append((list(steps), [repr(r.value) for (r,) in results]))
        return batches

    seeds = (2, 3, 5)
    family = history(seeds)
    assert {route for taken, _ in family for route, _ in taken} == {"tuple_overlaps" if name == "triple" else "overlap_batch"}
    for taken, _ in family:
        assert len({n for _, n in taken}) == len(taken)
    for i, seed in enumerate(seeds):
        alone = history((seed,))
        assert [taken for taken, _ in alone] == [taken for taken, _ in family]
        assert [values for _, values in alone] == [values[i : i + 1] for _, values in family]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("name", list(STAGE_BUILDERS))
def test_each_member_gets_the_values_of_a_one_member_family(name, m):
    """Every member of a family gets the values, bounds and stages of a
    one-member correlator, repr for repr, on every builder at m = 2 and 3,
    with a Q(sqrt 2) time on thm44.  The members' breakpoints have
    denominators 3, 4 and 5, so the family's lattice is finer than any
    member's."""
    make = STAGE_BUILDERS[name]
    times = [Fraction(-7, 3), Fraction(1, 2), 0, 5, *([SQRT2 - Fraction(3, 2)] if name == "thm44" else [])]
    members = [pair(make(), seed, levels=levels) for seed, levels in ((1, 3), (2, 4), (3, 5))]
    if m == 2:
        cls, queries = Correlator, times
    else:
        cls, queries = MCorrelator, [(0, t, -t / 2) for t in times]
        members = [(f, g, f) for f, g in members]
    family = cls(make(), members)
    assert family._lattice not in {cls(make(), [member])._lattice for member in members}
    for member, results in zip(members, family.at(queries)):
        assert result_reprs(results) == result_reprs(cls(make(), [member]).at(queries)[0])


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("name", list(STAGE_BUILDERS))
def test_a_call_keeps_nothing(passes, name, m):
    """An :meth:`at` call leaves the correlator's attributes as they were
    and adds none to the schedule; a later call on the same correlator
    gives a fresh correlator's results, repr for repr, from a memo that
    holds exactly the fresh call's keys."""
    make = STAGE_BUILDERS[name]
    f, g = pair(make(), 1)
    earlier = [Fraction(9, 4), Fraction(-11, 5)]
    times = [Fraction(-7, 3), Fraction(1, 2), 0, 5, *([SQRT2 - Fraction(3, 2)] if name == "thm44" else [])]
    if m == 2:
        cls, members, queries = Correlator, [(f, g)], lambda ts: ts
    else:
        cls, members, queries = MCorrelator, [(f, g, f)], lambda ts: [(0, t, -t / 2) for t in ts]
    sched = make()
    corr = cls(sched, members)
    kept, attributes = {key: (id(v), repr(v)) for key, v in vars(corr).items()}, set(vars(sched))
    corr.at(queries(earlier))
    assert {key: (id(v), repr(v)) for key, v in vars(corr).items()} == kept
    assert set(vars(sched)) == attributes
    later = corr.at(queries(times))
    assert result_reprs(later[0]) == result_reprs(cls(make(), members).at(queries(times))[0])
    (_, levels), (_, fresh) = passes[-2:]
    assert [{n: set(level) for n, level in memo.items()} for memo in memos(levels)] == [
        {n: set(level) for n, level in memo.items()} for memo in memos(fresh)
    ]
    assert {key: (id(v), repr(v)) for key, v in vars(corr).items()} == kept


def test_a_family_needs_one_arity_and_one_stage(flat2):
    f, g = pair(flat2, 1)
    deep = random_step_function(2, flat2.height(2), 4, random.Random(1))
    for family in ([], [(f, g), (f, g, f)], [(f,)]):
        with pytest.raises(RangeError):
            MCorrelator(flat2, family)
    with pytest.raises(RangeError, match="common stage"):
        MCorrelator(flat2, [(f, g), (deep, deep)])
    with pytest.raises(RangeError, match="common stage"):
        Correlator(flat2, [(f, g), (deep, deep)])


@pytest.mark.parametrize("name", ["batched", "sqrt2", "triple"])
def test_level_loop_equals_depth_first_recursion(passes, name):
    make, query = correlators(name)
    corr = make()
    for t in ORDER_TIMES:
        query(corr, t)
        assert_depth_first(corr, *passes[-1])


@pytest.fixture()
def array_steps(monkeypatch):
    """(route, stage, shifts) of every array step taken: the NumPy sweep or
    the difference table, in closed form on an equally spaced stage."""
    steps = []
    for route in ("_sweep_batch", "_table_batch"):
        original = getattr(schedule_module, route)

        def spy(stage, shifts, route=route, original=original):
            steps.append((route, stage.n, len(shifts)))
            return original(stage, shifts)

        monkeypatch.setattr(schedule_module, route, spy)
    return steps


def assert_depth_first(corr, lattice, levels):
    """Every value of a call's levels, repr for repr, as the depth-first
    recursion sums it on the call's lattice, and every key a Python int or
    tuple once it leaves an array."""
    memo = {}
    key_kinds(levels, corr._pair)
    for n, level in memos(levels)[0].items():
        for x, v in level.items():
            assert repr(v) == repr(depth_first(corr, lattice, n, x, memo))


def test_array_levels_equal_the_depth_first_sums(array_steps, passes):
    """A staircase query at stage 5 whose levels take the difference table
    (stage 2, r = 16), the NumPy sweep (stage 4, r = 256, on a level of
    fewer shifts) and the table in closed form (the flat stages 1 and 3):
    the values of the depth-first recursion, bit for bit."""
    sched = staircase34_schedule(staircase_stages=(2, 4), base=4, r_cap=256)
    f, g = pair(sched, 2)
    corr = Correlator(sched, [(f, g)])
    for t in (Fraction(-9, 10) * sched.height(4), Fraction(7, 3)):
        corr.at([t], stage=5)
    assert {(route, n) for route, n, _ in array_steps} == {
        ("_sweep_batch", 4),
        ("_table_batch", 3),
        ("_table_batch", 2),
        ("_table_batch", 1),
    }
    assert len(passes) == 2
    for call in passes:
        assert_depth_first(corr, *call)


def test_the_stair_sweep_op_takes_the_table_at_stage_2(array_steps):
    """The op of the benchmark's ``stair-sweep`` workload: criterion 3's
    sweep at c_7 and c_22 on the base-4 staircase (r_cap 4096), for a
    seed-0 mean-zero pair family.  Its stage-2 level (r = 16, 1,696
    shifts) takes the difference table, its stage-4 level (r = 256, 2
    shifts) the sweep, and the flat stages 1 and 3 the table in closed
    form."""
    params = {"staircase_stages": [2, 4, 6], "base": 4, "r_cap": 4096}
    h4 = staircase34_schedule(**params).height(4)
    grid = [1 + Fraction(9 * i, 29) for i in range(30)]
    spec = {
        "schedule": {"kind": "staircase34", "params": params},
        "times": [str(-c * h4) for c in (grid[7], grid[22])],
        "target": {"alpha": 0},
        "mean_zero": True,
        "family_size": 2,
        "seed": 0,
    }
    run_experiment("weak-limit", spec)
    assert {(route, n) for route, n, _ in array_steps} == {
        ("_sweep_batch", 4),
        ("_table_batch", 3),
        ("_table_batch", 2),
        ("_table_batch", 1),
    }


def test_array_levels_sum_each_row_in_order(array_steps, passes):
    """Terms that span 30 orders of magnitude, many per shift: a pairwise
    sum (``np.sum``, ``np.dot``, ``np.add.reduceat``) of a row differs from
    the in-order one, and every value is the in-order one."""
    sched = Schedule(lambda n, h, w: (64, [Fraction(j * j % 97, 97) for j in range(64)]))
    f = StepFunction(1, [0, Fraction(1, 3), Fraction(2, 3), 1], [1e15, 1.0, 1e-15j])
    g = StepFunction(1, [0, Fraction(1, 2), 1], [1.0, 3e-9 + 1e7j])
    corr = Correlator(sched, [(f, g)])
    for t in (Fraction(-7, 3), Fraction(5, 4), Fraction(-70, 3)):
        corr.at([t], stage=3)
    assert {(route, n) for route, n, _ in array_steps} == {("_sweep_batch", 2), ("_sweep_batch", 1)}
    reordered = set()  # the shifts, decoded, whose pairwise sum differs
    for lattice, levels in passes:
        assert_depth_first(corr, lattice, levels)
        (memo,) = memos(levels)
        below = memo[1]
        for x, v in memo[2].items():
            step = sched.overlaps(1, [x], lattice)
            terms = np.array([m * below[d] for d, m in zip(np.asarray(step[1])[step[2]].tolist(), step[3].tolist())])
            if np.sum(terms) != v:
                reordered.add(lattice.decode(x))
    assert len(reordered) > 10


def test_levels_past_int64_take_the_list_step(monkeypatch, array_steps, passes):
    """With every value past ``_INT64_SAFE``, the same queries take the list
    step only and give the same values, repr for repr; a time whose
    denominator puts the lattice past int64 does so too."""
    sched = SCHEDULES["wide_staircase"]()
    f, g = pair(sched, 2)
    arrays = [repr(Correlator(sched, [(f, g)]).at([t], stage=4)[0][0].value) for t in ORDER_TIMES]
    assert array_steps
    array_steps.clear()
    with monkeypatch.context() as patched:  # undo() would drop the spies too
        patched.setattr(schedule_module, "_INT64_SAFE", 1)
        fresh = SCHEDULES["wide_staircase"]()  # the first schedule keeps its array levels
        assert [repr(Correlator(fresh, [(f, g)]).at([t], stage=4)[0][0].value) for t in ORDER_TIMES] == arrays
    assert array_steps == []
    corr = Correlator(sched, [(f, g)])
    corr.at([Fraction(-7, 3) + Fraction(1, 2**62)], stage=4)
    assert array_steps == []
    assert_depth_first(corr, *passes[-1])


def test_pairs_and_tuples_never_take_an_array_step(array_steps, passes):
    """A Q(sqrt 2) time on a rational staircase (its (a, b) pairs) and a
    3-point query keep the list step, though one shift at stage 3 (r = 64)
    is already batch enough for an array step."""
    sched = SCHEDULES["wide_staircase"]()
    assert sched.stage(3).r >= schedule_module._NUMPY_MIN_WORK
    f, g = pair(sched, 2)
    corr = Correlator(sched, [(f, g)])
    corr.at([SQRT2 - Fraction(3, 2)], stage=4)
    assert passes[-1][0].sqrt2
    MCorrelator(sched, [[f, g, f]]).at([(0, Fraction(7, 3), Fraction(-5, 2))], stage=4)
    assert array_steps == []
    Correlator(sched, [(f, g)]).at([Fraction(-3, 2)], stage=4)
    assert array_steps


def test_base_frontiers_on_int_lattices_take_the_array_pass(base_rows, passes):
    """A 3-point batch on asym49 and a 2-point one on a staircase, each
    with a base frontier of ``_ARRAY_MIN_ROWS`` tuples or more on an int
    lattice: the array pass answers every tuple, and each base value is
    the depth-first recursion's, repr for repr."""
    sched = asym49_schedule(r_cap=16)
    triple = MCorrelator(sched, [[*pair(sched, 3), pair(sched, 4)[0]]])
    triple.at([(0, t, -t / 2) for t in ORDER_TIMES])
    wide = SCHEDULES["wide_staircase"]()
    two = Correlator(wide, [pair(wide, 2)])
    two.at(ORDER_TIMES, stage=4)
    counts = [len(levels[corr.k][0]) for corr, (_, levels) in zip((triple, two), passes)]
    assert min(counts) >= _ARRAY_MIN_ROWS
    assert base_rows == Counter(array=sum(counts))
    assert_depth_first(triple, *passes[0])
    assert_depth_first(two, *passes[1])


@pytest.mark.parametrize("case", ["sqrt2", "past-2**53", "below-break-even"])
def test_base_frontiers_that_keep_product_integral(base_rows, passes, case):
    """A Q(sqrt 2) lattice and a grid past 2**53 (its shifts below it),
    each at a base frontier big enough for the array pass, and a frontier
    of fewer than ``_ARRAY_MIN_ROWS`` tuples: product_integral answers
    each tuple."""
    if case == "sqrt2":
        sched, count = SCHEDULES["thm44"](), 2 * _ARRAY_MIN_ROWS
    elif case == "past-2**53":
        sched, count = flat_schedule(3, h1=2**60), 2 * _ARRAY_MIN_ROWS
    else:
        sched, count = asym49_schedule(r_cap=16), _ARRAY_MIN_ROWS - 1
    f, g = pair(sched, 5)
    corr = MCorrelator(sched, [[f, g, f]])
    corr.at([(0, Fraction(i, 3 * count), Fraction(-i, 2 * count)) for i in range(count)], stage=1)
    assert len(passes[-1][1][1][0]) == count
    assert base_rows == Counter(product_integral=count)
    assert_depth_first(corr, *passes[-1])


# the op of the benchmark's asym49-triple workload at seed 0
TRIPLE_OP = {"schedule": {"kind": "asym49", "params": {}}, "stage_count": 4, "forward_sets": 3, "seed": 0}


def test_the_triple_op_reaches_each_coordinate_once_per_step(monkeypatch):
    """On the triple-asymmetry op, each m-tuple step builds the copy
    windows of each distinct coordinate of its batch once, or on an
    equally spaced stage its closed-form range, though the batches repeat
    coordinates."""
    steps, taken = [], schedule_module.tuple_overlaps

    def step_spy(stage, shifts):
        steps.append((stage.period is None, list(itertools.chain.from_iterable(shifts)), Counter()))
        return taken(stage, shifts)

    monkeypatch.setattr(schedule_module, "tuple_overlaps", step_spy)
    for name in ("copy_windows", "_periodic_deltas"):
        original = getattr(schedule_module, name)

        def spy(stage, shift, *rest, original=original, name=name):
            steps[-1][2][name, shift] += 1
            return original(stage, shift, *rest)

        monkeypatch.setattr(schedule_module, name, spy)
    run_experiment("triple-asymmetry", dict(TRIPLE_OP))
    assert len(steps) == 14 and {windows for windows, _, _ in steps} == {True, False}
    assert sum(len(coordinates) - len(set(coordinates)) for _, coordinates, _ in steps) > 100
    for windows, coordinates, reached in steps:
        route = "copy_windows" if windows else "_periodic_deltas"
        assert reached == Counter({(route, x): 1 for x in coordinates})


def test_the_triple_op_takes_one_array_pass_per_base_frontier(monkeypatch, passes):
    """On the triple-asymmetry op, the forward sets (3 members) and the
    backward combs (9 members) each reach one base frontier, and each
    frontier is one array pass for its whole family."""
    members, array = [], correlate_module.array_integrals

    def spy(family, shifts, lattice):
        members.append(len(family))
        return array(family, shifts, lattice)

    monkeypatch.setattr(correlate_module, "array_integrals", spy)
    run_experiment("triple-asymmetry", dict(TRIPLE_OP))
    assert members == [3, 9]
    assert [len(values) for _, levels in passes for n, (_, values) in levels.items() if n == 2] == members


def result_reprs(results) -> list:
    return [(repr(r.value), repr(r.error_bound), r.stage_used) for r in results]


# (times, stage) on the wide staircase (r = 4, 16, 64, 64; h_4 = 6268), and
# per level (the frontier's type, the type of its values)
ARRAY, LIST = np.ndarray, list
ARRAY_LEVELS = {
    # array levels 3, 2 and 1 over the array base; five keys wanted at
    # stage 3 join its array frontier, two of them among its deltas already
    "array-chain": (
        [Fraction(-7, 3), 40, -200, Fraction(17, 3), 23, Fraction(1, 2), Fraction(-3, 8), Fraction(1, 8)],
        None,
        {1: (ARRAY, ARRAY), 2: (ARRAY, ARRAY), 3: (ARRAY, ARRAY), 4: (LIST, ARRAY)},
    ),
    # the keys of the stage-3 array step, 11 shifts at r = 4, take a list step
    "array-into-list": ([Fraction(-7, 3)], 4, {1: (LIST, ARRAY), 2: (ARRAY, LIST), 3: (ARRAY, ARRAY), 4: (LIST, ARRAY)}),
    # two shifts with no delta at stage 3, in one array step with one that has some
    "no-delta-row": ([-6267, Fraction(-7, 3), 6267], 4, {1: (LIST, ARRAY), 2: (ARRAY, LIST), 3: (ARRAY, ARRAY), 4: (LIST, ARRAY)}),
    # an array step with no delta at all: the level below is empty
    "no-delta-level": ([-6267, 6267], 4, {4: (LIST, ARRAY)}),
}


@pytest.mark.parametrize("case", list(ARRAY_LEVELS))
def test_array_levels_equal_the_list_path(monkeypatch, passes, case):
    """Array levels kept as arrays from the base case to the sums give the
    values of the list path, repr for repr, key for key at every level: with
    every step and base frontier sent to the list path, and with the base
    frontiers alone sent to product_integral.  A frontier that leaves an
    array for a list route or product_integral does so as Python ints, and
    the keys a query reads are Python ints."""
    stepfun_module = importlib.import_module("rank1flow.stepfun")
    times, stage, kinds = ARRAY_LEVELS[case]
    f, g = pair(SCHEDULES["wide_staircase"](), 2)
    reached = Counter()  # the types of the shifts that reach a Python route
    original = schedule_module.overlap_pairs

    def spy(stage, x, *args):
        reached["overlap_pairs", type(x)] += 1
        return original(stage, x, *args)

    monkeypatch.setattr(schedule_module, "overlap_pairs", spy)
    scalar = correlate_module.product_integral

    def scalar_spy(functions, shifts, lattice=None):
        reached.update(("product_integral", type(x)) for x in shifts)
        return scalar(functions, shifts, lattice)

    monkeypatch.setattr(correlate_module, "product_integral", scalar_spy)

    def run(**patches):
        with monkeypatch.context() as patched:
            for module, name in ((schedule_module, "_NUMPY_MIN_WORK"), (stepfun_module, "_ARRAY_MIN_ROWS")):
                if name in patches:
                    patched.setattr(module, name, patches[name])
            (results,) = Correlator(SCHEDULES["wide_staircase"](), [(f, g)]).at(times, stage=stage)
        levels = passes[-1][1]
        assert key_kinds(levels) <= {int} and all(len(set(python(xs))) == len(xs) for xs, _ in levels.values())
        (memo,) = memos(levels)
        return result_reprs(results), {n: sorted(map(repr, level.items())) for n, level in memo.items()}, levels

    arrays, memo, levels = run()
    assert {n: (type(xs), type(values[0])) for n, (xs, values) in levels.items()} == kinds
    reference, reference_memo, listed = run(_NUMPY_MIN_WORK=2**62, _ARRAY_MIN_ROWS=2**62)
    assert all(type(xs) is list and type(values[0]) is list for xs, values in listed.values())
    assert (arrays, memo) == (reference, reference_memo)
    assert run(_ARRAY_MIN_ROWS=2**62)[:2] == (reference, reference_memo)
    names = {name for name, _ in reached}
    assert {kind for _, kind in reached} == {int}
    assert "overlap_pairs" in names and ("product_integral" in names) == (1 in kinds)
    if case == "no-delta-level":
        assert [r[0] for r in arrays] == ["0j", "0j"]


def test_wanted_keys_join_a_frontier_once():
    """A stage's wanted keys follow its frontier, each once, and each takes
    its place in the frontier, returned in the keys' order: found in an
    array step's keys by ``searchsorted``, or appended; an empty frontier
    takes them all.  A list frontier stays a list of Python ints, whatever
    the keys' kind."""
    merged = correlate_module._merged
    kinds = (dict.fromkeys, list, lambda keys: np.array(keys, dtype=np.int64))
    for kind, xs in itertools.product(kinds, (np.array([-4, 0, 3, 9], dtype=np.int64), [9, -4, 0, 3], np.array([], dtype=np.int64), [])):
        wanted = kind([3, 12, -4, -20])
        frontier, places = merged(xs, wanted)
        assert type(frontier) is type(xs) and type(places) is type(xs)
        if type(xs) is np.ndarray:
            assert frontier.dtype == np.int64
        else:
            assert {type(x) for x in frontier} == {int}
        assert python(frontier)[: len(xs)] == python(xs) and len(set(python(frontier))) == len(frontier)
        assert [python(frontier)[place] for place in places] == [3, 12, -4, -20]
        assert python(frontier)[len(xs) :] == [key for key in [3, 12, -4, -20] if key not in python(xs)]


@pytest.fixture()
def level_steps(monkeypatch):
    """The stage of every step taken, 2-point or m-point."""
    stages = []
    for route in ("overlap_batch", "tuple_overlaps"):
        original = getattr(schedule_module, route)

        def spy(stage, shifts, original=original):
            stages.append(stage.n)
            return original(stage, shifts)

        monkeypatch.setattr(schedule_module, route, spy)
    return stages


# (schedule, arity, times): the staircase's levels are array steps, thm44's
# Q(sqrt 2) list steps and asym49's 3-point steps; each list spans several
# working stages
BATCHES = {
    "staircase": (
        lambda: staircase34_schedule(staircase_stages=(2, 3), base=4, r_cap=64),
        2,
        [Fraction(-7, 3), Fraction(1, 2), Fraction(5, 4), 0, 40, -200, Fraction(17, 3), 23],
    ),
    "thm44": (SCHEDULES["thm44"], 2, [SQRT2, Fraction(1, 2), SQRT2 - Fraction(3, 2), 0, 40, -9 * SQRT2, 2]),
    "asym49-triple": (lambda: asym49_schedule(r_cap=16), 3, [Fraction(-7, 3), Fraction(1, 2), 0, 12, -30, 50]),
}


def batch_correlator(name):
    """(make a correlator on a fresh schedule, its query times)."""
    make, m, times = BATCHES[name]
    f, g = pair(make(), 5)
    if m == 2:
        return (lambda: Correlator(make(), [(f, g)])), list(times)
    return (lambda: MCorrelator(make(), [[f, g, f]])), [(0, t, -t / 2) for t in times]


ORDERS = {
    "as-listed": lambda ts: ts,
    "reversed": lambda ts: ts[::-1],
    "shuffled": lambda ts: random.Random(7).sample(ts, len(ts)),
    "duplicates": lambda ts: [*ts, *ts[::2], ts[0]],
}


@pytest.mark.parametrize("stage", [None, 3], ids=["picked", "stage-3"])
@pytest.mark.parametrize("order", list(ORDERS))
@pytest.mark.parametrize("name", list(BATCHES))
def test_a_batch_equals_one_time_batches(array_steps, level_steps, name, order, stage):
    """One batch gives the values, bounds and stages of one-time batches,
    repr for repr, whatever the order of its times and with repeats, and
    takes at most one step per stage.  Picked, its times span several
    working stages; at stage 3 some of their shifts leave |x| < h_3 and
    the value is 0."""
    make, times = batch_correlator(name)
    times = ORDERS[order](times)
    (batch,) = make().at(times, stage=stage)
    assert len(batch) == len(times)
    assert sorted(level_steps) == sorted(set(level_steps))
    assert bool(array_steps) == (name == "staircase")
    one = make()
    assert result_reprs(batch) == result_reprs([one.at([t], stage=stage)[0][0] for t in times])
    if stage is None:
        assert len({r.stage_used for r in batch}) >= 3
    else:
        assert any(r.value == 0 for r in batch) and any(r.value != 0 for r in batch)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-300, max_value=300, max_denominator=12), min_size=1, max_size=12))
def test_random_batches_equal_one_time_batches(times):
    make, _ = batch_correlator("staircase")
    one = make()
    assert result_reprs(make().at(times)[0]) == result_reprs([one.at([t])[0][0] for t in times])


def test_an_empty_batch_takes_no_step(level_steps):
    make, _ = batch_correlator("staircase")
    assert make().at([]) == [[]]
    assert level_steps == []


def test_a_batch_whose_union_passes_the_guard_raises(monkeypatch, passes):
    """Two times that each fit GUARD alone, asked together: their memo
    union passes it, and the batch raises the memo guard."""
    f, g = pair(flat_schedule(3), 1)
    times = [Fraction(-7, 3), Fraction(5, 4)]

    def memo_after(batch):
        corr = Correlator(flat_schedule(3), [(f, g)])
        corr.at(batch, stage=4)
        return memo_size(passes[-1][1])

    alone = max(memo_after([t]) for t in times)
    union = memo_after(times)
    assert union > alone
    monkeypatch.setattr(schedule_module, "GUARD", alone)
    for t in times:
        memo_after([t])
    with pytest.raises(ResourceError, match=f"^memo blowup near stage \\d+: more than {alone} distinct shifts$"):
        memo_after(times)
    monkeypatch.setattr(schedule_module, "GUARD", union)
    assert memo_after(times) == union


def test_a_time_past_max_stage_fails_its_batch_before_any_step(level_steps, passes):
    """The stages of a batch are picked before its first step: one time too
    far for MAX_STAGE raises the RangeError it raises alone, and nothing
    is computed for the others."""
    f, g = pair(flat_schedule(2), 2)
    far = 10**25
    with pytest.raises(RangeError) as alone:
        Correlator(flat_schedule(2), [(f, g)]).at([far])
    corr = Correlator(flat_schedule(2), [(f, g)])
    with pytest.raises(RangeError) as batch:
        corr.at([Fraction(1, 2), far, 1])
    assert str(batch.value) == str(alone.value) == "|t| = 1e+25 out of range: no stage up to 64 is tall enough"
    assert level_steps == [] and passes == []
    corr.at([Fraction(1, 2), 1])
    assert level_steps


def test_an_explicit_stage_past_max_stage_raises(level_steps):
    """A stage given to :meth:`at` is bounded by MAX_STAGE as a picked one is."""
    f, g = pair(flat_schedule(2), 2)
    deepest = correlate_module.MAX_STAGE
    with pytest.raises(RangeError, match=f"^stage {deepest + 1} is past MAX_STAGE = {deepest}$"):
        Correlator(flat_schedule(2), [(f, g)]).at([Fraction(1, 2)], stage=deepest + 1)
    assert level_steps == []


def test_a_batch_takes_one_float_width_per_working_stage(monkeypatch):
    """The float of w_N is taken once per working stage of a batch, not
    once per time, and a width past float range raises as it did."""
    calls, original = Counter(), correlate_module.to_float
    monkeypatch.setattr(correlate_module, "to_float", lambda x, what: calls.update([what]) or original(x, what))
    make, times = batch_correlator("staircase")
    times = [*times, *times]
    (batch,) = make().at(times)
    stages = {r.stage_used for r in batch}
    assert len(stages) >= 3
    assert {what: n for what, n in calls.items() if what.startswith("w_")} == {f"w_{n}": 1 for n in stages}
    assert "|t|" not in calls  # each |t| is read off its lattice coordinates, with no scalar
    f, g = pair(flat_schedule(2), 1)
    with pytest.raises(RangeError, match=f"^w_4 = 125{'0' * 397} is past float range$"):
        Correlator(flat_schedule(2, w1=10**400), [(f, g)]).at([Fraction(1, 2), 3, 40])


def test_a_time_past_float_range_at_a_given_stage_raises():
    f, g = pair(flat_schedule(2), 2)
    with pytest.raises(RangeError, match="^\\|t\\| = 1" + "0" * 400 + " is past float range$"):
        Correlator(flat_schedule(2), [(f, g)]).at([10**400], stage=5)


# -- one lattice per call, the members' grown in scale and in kind ------------

MIXED = [SQRT2 - Fraction(3, 2), Fraction(1, 2)]


def small_staircase34():
    return staircase34_schedule(staircase_stages=(2,), base=4, r_cap=16)


def test_a_rational_batch_after_a_sqrt2_one_starts_afresh(level_steps, passes):
    """A call keeps nothing: after a Q(sqrt 2) batch, a rational batch
    takes its own steps on an int lattice, and its value is the one the
    Q(sqrt 2) batch gave, bit for bit."""
    sched = small_staircase34()
    f, g = pair(sched, 0)
    corr = Correlator(sched, [(f, g)])
    (first,) = corr.at(MIXED)
    assert (memo_size(passes[-1][1]), len(level_steps)) == (12, 2)
    (again,) = corr.at([Fraction(1, 2)])
    assert len(level_steps) > 2 and not passes[-1][0].sqrt2
    assert repr(again[0].value) == repr(first[1].value)
    assert [key_kinds(levels) for _, levels in passes] == [{tuple}, {int}]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("sqrt2_first", [True, False], ids=["sqrt2-first", "rational-first"])
def test_a_grown_lattice_keeps_one_memo(passes, m, sqrt2_first):
    """A rational and a Q(sqrt 2) batch, in either order, give the values of
    fresh correlators bit for bit; each call grows the members' lattice to
    its own, and its memo holds keys of one kind."""
    f, g = pair(small_staircase34(), 0)

    def fresh():
        return Correlator(small_staircase34(), [(f, g)]) if m == 2 else MCorrelator(small_staircase34(), [[f, g, f]])

    def queries(times):
        return times if m == 2 else [(0, t, -t / 2) for t in times]

    corr, kinds = fresh(), []
    for times in (MIXED, [Fraction(1, 2)])[:: 1 if sqrt2_first else -1]:
        results = corr.at(queries(times))[0]
        lattice, levels = passes[-1]
        assert key_kinds(levels, m == 2) == {tuple if lattice.sqrt2 else int}
        kinds.append(lattice.sqrt2)
        assert result_reprs(results) == result_reprs(fresh().at(queries(times))[0])
    assert kinds == [True, False][:: 1 if sqrt2_first else -1]


RATIONAL_BUILDERS = {
    "flat": lambda: flat_schedule(3),
    "staircase34": small_staircase34,
    "asym49": lambda: asym49_schedule(r_cap=16),
}
small_times = st.fractions(min_value=-8, max_value=8, max_denominator=6)
mixed_times = small_times | st.builds(lambda a, b: a + b * SQRT2, small_times, small_times)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(RATIONAL_BUILDERS)), st.lists(st.lists(mixed_times, min_size=1, max_size=3), min_size=2, max_size=4))
def test_mixed_batches_equal_fresh_correlators(name, batches):
    """Rational and Q(sqrt 2) batches in any order on one correlator equal
    a fresh correlator per batch, bit for bit, each call's memo on one
    kind of key."""
    make = RATIONAL_BUILDERS[name]
    f, g = pair(make(), 1)
    corr = Correlator(make(), [(f, g)])
    with pytest.MonkeyPatch.context() as patch:
        passes = record_passes(patch)
        for times in batches:
            results = corr.at(times)[0]
            assert len(key_kinds(passes[-1][1])) == 1
            assert result_reprs(results) == result_reprs(Correlator(make(), [(f, g)]).at(times)[0])


@pytest.mark.parametrize("name", ["asym49", "thm44"])
def test_the_norm_of_a_real_function_builds_no_conjugate(monkeypatch, name):
    """<A, A> of a real-valued A (level sets, combs, real step functions),
    over Q and Q(sqrt 2), is the value of the conjugate-copy formula, repr
    for repr, with no conjugate built; a complex f still takes the copy."""
    sched = asym49_schedule(r_cap=16) if name == "asym49" else thm44_schedule(s_values=(2,), q_max=1, k_max=1, r_cap=6)
    rng = random.Random(5)
    h = sched.height(2)
    sets = forward_level_sets(sched, {"seed": 3, "forward_sets": 4}) + [a for _, a in backward_candidates(sched, {})]
    reals = [StepFunction(2, f.breakpoints, [complex(v).real for v in f.values]) for f in (random_step_function(2, h, 6, rng) for _ in range(4))]
    expected = [repr(complex(product_integral([a, a.conjugate()], (0, 0))) * to_float(sched.width(2), "w")) for a in sets + reals]
    built, conjugate = [], StepFunction.conjugate
    monkeypatch.setattr(StepFunction, "conjugate", lambda f: built.append(f) or conjugate(f))
    assert [repr(inner_product(sched, a, a)) for a in sets + reals] == expected
    assert built == []
    f = random_step_function(2, h, 6, rng)
    assert any(complex(v).imag for v in f.values)
    assert inner_product(sched, f, f) == complex(product_integral([f, conjugate(f)], (0, 0))) * to_float(sched.width(2), "w")
    assert built == [f]
