"""The array batch of :meth:`Correlator.at` and :meth:`Correlator.sample`
against the per-time loop.

A batch of ``_ARRAY_MIN_TIMES`` times or more on an int lattice keeps its
bookkeeping (stage pick, the wanted keys, value * w_N and the bound) in
NumPy; the tests move that floor to send one batch down either
path, and compare the two repr for repr.
"""

import importlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rank1flow import (
    Correlator,
    MCorrelator,
    asym49_schedule,
    autocorr_curve,
    flat_schedule,
    random_step_function,
    staircase34_schedule,
    thm44_schedule,
)
from rank1flow.errors import RangeError

correlate_module = importlib.import_module("rank1flow.correlate")  # the package exports a function of that name

ARRAYS, LOOP = 1, 2**62  # floors that send every nonempty batch, or none, to the arrays

BATCH_SCHEDULES = {
    "flat": flat_schedule(3),
    "staircase": staircase34_schedule(staircase_stages=(2, 3), base=4, r_cap=16),
    "asym49": asym49_schedule(r_cap=16),
}


def family(schedule, seed: int, size: int) -> list:
    rng = random.Random(seed)
    h = schedule.height(1)
    return [(random_step_function(1, h, 4, rng), random_step_function(1, h, 4, rng)) for _ in range(size)]


def spied(monkeypatch) -> list:
    """The route of each batch that reaches the bookkeeping: "arrays" or "loop"."""
    routes = []
    for name in ("_arrays", "_loop"):
        original = getattr(MCorrelator, name)

        def spy(self, *args, original=original, name=name):
            routes.append(name.strip("_"))
            return original(self, *args)

        monkeypatch.setattr(MCorrelator, name, spy)
    return routes


def answers(schedule, pairs, times, stage, floor: int) -> tuple:
    """The results of one ``at`` call with the batch floor at *floor*, as
    reprs, and the route the batch took; a RangeError's text instead of
    the results."""
    with pytest.MonkeyPatch.context() as patched:
        routes = spied(patched)
        patched.setattr(correlate_module, "_ARRAY_MIN_TIMES", floor)
        try:
            results = Correlator(schedule, pairs).at(times, stage=stage)
        except RangeError as error:
            return str(error), routes
    return [[(repr(r.value), repr(r.error_bound), r.stage_used) for r in member] for member in results], routes


# times around the heights of the first stages, on small denominators; the
# drawn batch is padded with its own duplicates, t = 0 and negations
times_strategy = st.lists(st.fractions(min_value=-700, max_value=700, max_denominator=8), min_size=1, max_size=24)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(BATCH_SCHEDULES)),
    times_strategy,
    st.integers(1, 3),
    st.integers(0, 10**6),
    st.sampled_from([None, 1, 2, 3]),
)
def test_the_array_batch_equals_the_per_time_loop(name, drawn, members, seed, stage):
    """Values, bounds and stages, repr for repr, on batches with repeated
    times, t = 0, negative times, several working stages and (at a given
    stage) times outside |x| < h_N, for families of 1-3 pairs."""
    schedule = BATCH_SCHEDULES[name]
    times = [*drawn, 0, *drawn[:3], *(-t for t in drawn[:2])]
    pairs = family(schedule, seed, members)
    arrays, routes = answers(schedule, pairs, times, stage, ARRAYS)
    loop, loop_routes = answers(schedule, pairs, times, stage, LOOP)
    assert arrays == loop
    assert loop_routes == ["loop"] and routes == ["arrays"]


def test_a_batch_over_several_stages_with_times_outside_h_n():
    """One fixed batch that has both: four working stages, and at stage 2
    times past h_2 whose value is 0."""
    schedule = BATCH_SCHEDULES["staircase"]
    pairs = family(schedule, 7, 2)
    times = [Fraction(1, 4), 3, -40, 500, 3, 0, Fraction(-7, 2)]
    picked, routes = answers(schedule, pairs, times, None, ARRAYS)
    assert routes == ["arrays"] and len({stage for _, _, stage in picked[0]}) == 4
    assert picked == answers(schedule, pairs, times, None, LOOP)[0]
    given_stage, routes = answers(schedule, pairs, times, 2, ARRAYS)
    assert routes == ["arrays"] and [value for value, _, _ in given_stage[0]][2:4] == ["0j", "0j"]
    assert given_stage == answers(schedule, pairs, times, 2, LOOP)[0]
    # m = 3 at stages 2 (h_2 = 4) and 1 (h_1 = 1, the base case): a tuple
    # with one shift or both past h_N is exactly 0j, the others are the
    # values each tuple has alone
    (f, g), _ = pairs[:2]
    triples = MCorrelator(schedule, [[f, g, f]])
    queries = [(0, Fraction(1, 4), Fraction(-1, 2)), (0, Fraction(1, 4), 3), (0, 5, Fraction(1, 2)), (0, -40, 500), (1, 1, 6)]
    for stage, outside in ((2, [2, 3, 4]), (1, [1, 2, 3, 4])):
        (results,) = triples.at(queries, stage=stage)
        assert [i for i, r in enumerate(results) if repr(r.value) == "0j"] == outside
        for query, r in zip(queries, results):
            assert repr(r.value) == repr(triples.at([query], stage=stage)[0][0].value)


PREMISE_SCHEDULES = {**BATCH_SCHEDULES, "thm44": thm44_schedule(s_values=(2,), q_max=1, k_max=1, r_cap=6)}
premise_times = st.fractions(min_value=-40, max_value=40, max_denominator=8)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(PREMISE_SCHEDULES)),
    st.lists(st.tuples(premise_times, premise_times, premise_times), min_size=1, max_size=40),
    st.sampled_from([2, 3]),
    st.sampled_from([ARRAYS, LOOP]),
    st.integers(0, 10**6),
)
def test_every_shift_is_inside_its_picked_stage(name, drawn, m, floor, seed):
    """At each picked stage N, every exact |t_i - t_0| < h_N: at m = 2 on
    the arrays and on the loop, at m = 3 on the loop, on rational and
    Q(sqrt 2) schedules.  So at a picked stage the recursion answers every
    shift from inside the tower."""
    schedule = PREMISE_SCHEDULES[name]
    (f, g), = family(schedule, seed, 1)
    queries = [(0, t) for t, _, _ in drawn] if m == 2 else drawn
    with pytest.MonkeyPatch.context() as patched:
        routes = spied(patched)
        patched.setattr(correlate_module, "_ARRAY_MIN_TIMES", floor)
        if m == 2:
            (results,) = Correlator(schedule, [(f, g)]).at([t for _, t in queries])
        else:
            (results,) = MCorrelator(schedule, [[f, g, f]]).at(queries)
    arrays = m == 2 and floor == ARRAYS and name != "thm44"
    assert routes == ["arrays" if arrays else "loop"]
    for (t0, *rest), r in zip(queries, results):
        assert all(abs(t - t0) < schedule.height(r.stage_used) for t in rest)


def test_sample_equals_at_on_a_grid():
    """sample's arrays at T/scale are at's results at the same times."""
    schedule = BATCH_SCHEDULES["asym49"]
    pairs = family(schedule, 3, 2)
    corr = Correlator(schedule, pairs)
    coordinates = [3 * i - 40 for i in range(40)]
    values, bounds, stages = corr.sample(coordinates, 7)
    results = corr.at([Fraction(x, 7) for x in coordinates])
    for vs, bs, member in zip(values, bounds, results):
        assert vs.tolist() == [r.value for r in member] and bs.tolist() == [r.error_bound for r in member]
        assert stages.tolist() == [r.stage_used for r in member]


def test_an_empty_batch_is_empty_on_both_paths():
    schedule = BATCH_SCHEDULES["flat"]
    pairs = family(schedule, 1, 2)
    for floor in (ARRAYS, LOOP):
        assert answers(schedule, pairs, [], None, floor) == ([[], []], [])
    values, bounds, stages = Correlator(schedule, pairs).sample([], 1)
    assert [len(a) for a in (*values, *bounds, stages)] == [0] * 5
    assert values[0].dtype == complex and bounds[0].dtype == float and stages.dtype == np.int64


@pytest.mark.parametrize(
    "stage, message",
    [(0, "stage 0 is below the functions' stage 1"), (65, "stage 65 is past MAX_STAGE = 64")],
    ids=["below-k", "past-max-stage"],
)
def test_a_given_stage_out_of_range_fails_the_same_way(stage, message):
    schedule = BATCH_SCHEDULES["flat"]
    pairs = family(schedule, 1, 1)
    for times in ([], [1, 2, 3]):
        for floor in (ARRAYS, LOOP):
            assert answers(schedule, pairs, times, stage, floor) == (message, [])


def test_the_functions_stage_past_max_stage_fails_the_same_way():
    schedule = flat_schedule(2)
    f = random_step_function(65, schedule.height(65), 2, random.Random(0))
    for floor in (ARRAYS, LOOP):
        message, routes = answers(schedule, [(f, f)], [1, 2], None, floor)
        assert message == "the functions' stage 65 is past MAX_STAGE = 64: no working stage can be picked"
        assert routes == []


def test_a_time_past_max_stage_is_named_the_same_way(monkeypatch):
    """The first time past MAX_STAGE in query order is named, not the
    largest, and no step is taken."""
    monkeypatch.setattr(correlate_module, "MAX_STAGE", 8)
    schedule = BATCH_SCHEDULES["flat"]
    pairs = family(schedule, 2, 2)
    times = [3, 5000, -9000, 2000]
    for floor in (ARRAYS, LOOP):
        assert answers(schedule, pairs, times, None, floor) == ("|t| = 5000 out of range: no stage up to 8 is tall enough", [])


def test_a_width_past_float_range_is_named_the_same_way():
    """Each w_N is checked in the order the working stages first occur, so
    the first time's stage is named on both paths."""
    schedule = flat_schedule(2, w1=10**400)
    pairs = family(schedule, 1, 1)
    for times, named in (([40, Fraction(1, 2), 3], "w_9"), ([Fraction(1, 2), 3, 40], "w_4")):
        for floor, route in ((ARRAYS, "arrays"), (LOOP, "loop")):
            message, routes = answers(schedule, pairs, times, None, floor)
            assert message.startswith(f"{named} = ") and message.endswith(" is past float range") and routes == [route]


def test_sqrt2_lattices_and_triples_keep_the_per_time_loop(small_thm44):
    """A Q(sqrt 2) lattice and an m = 3 family never reach the arrays,
    whatever the floor."""
    times = [Fraction(i, 3) for i in range(40)]
    with pytest.MonkeyPatch.context() as patched:
        routes = spied(patched)
        patched.setattr(correlate_module, "_ARRAY_MIN_TIMES", ARRAYS)
        f, g = family(small_thm44, 0, 1)[0]
        Correlator(small_thm44, [(f, g)]).at(times)
        schedule = BATCH_SCHEDULES["asym49"]
        f, g = family(schedule, 0, 1)[0]
        MCorrelator(schedule, [[f, g, f]]).at([(0, t, 3 * t) for t in times])
    assert routes == ["loop", "loop"]


@pytest.mark.parametrize("dt, t_max", [(Fraction(10**15), 10**16), (Fraction(10**15), 3 * 10**15)], ids=["coordinates", "rescaled"])
def test_a_curve_past_2_53_keeps_the_per_time_loop(monkeypatch, dt, t_max):
    """Coordinates at or past 2**53, on the scale handed over (i * 10**15
    up to 10**16) or once rescaled to the members' lattice (of scale 4:
    3 * 10**15 becomes 1.2e16), take the per-time loop, with its values,
    whatever the floor."""
    schedule = BATCH_SCHEDULES["flat"]
    (f, _), = family(schedule, 4, 1)
    monkeypatch.setattr(correlate_module, "_ARRAY_MIN_TIMES", ARRAYS)
    routes = spied(monkeypatch)
    curve = autocorr_curve(schedule, f, dt, t_max)
    assert routes == ["loop"]
    n = len(curve.values) // 2
    (results,) = Correlator(schedule, [(f, f)]).at([i * dt for i in range(n + 1)])
    assert routes == ["loop", "loop"]
    assert curve.values[n:].tolist() == [r.value for r in results]
    assert curve.bounds[n:].tolist() == [r.error_bound for r in results]
    assert curve.times.tobytes() == np.array([float(i * dt) for i in range(-n, n + 1)]).tobytes()


def test_numpy_scales_a_complex_by_a_float_as_python_does():
    """value * w_N on the arrays is Python's complex * float, signed zeros,
    infinities and NaNs included."""
    edges = [0.0, -0.0, 1.5, -2.25, 1e-310, 1e308, float("inf"), -float("inf"), float("nan")]
    values = [complex(a, b) for a in edges for b in edges]
    for w in (0.375, 1e-300, 3e300, 0.0):
        with np.errstate(all="ignore"):
            scaled = (np.array(values) * np.full(len(values), w)).tolist()
        assert list(map(repr, scaled)) == [repr(v * w) for v in values]
