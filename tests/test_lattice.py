"""The integer-lattice kernel against the scalar loop it replaced.

``reference_overlap_pairs`` is the two-pointer sweep in plain
``Fraction``/``Sqrt2`` arithmetic; the lattice kernel (Python ints, int64
NumPy arrays, and (a, b) pairs for Q(sqrt 2)) must return the same
(delta, multiplicity) list, in the same order, for every input.
"""

from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain, product
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rank1flow import (
    Schedule,
    Sqrt2,
    asym49_schedule,
    flat_schedule,
    overlap_pairs,
    staircase34_schedule,
    symmetrize,
    thm44_schedule,
)
from rank1flow import schedule as schedule_module
from rank1flow.errors import ResourceError
from rank1flow.scalars import sqrt2_sign
from rank1flow.schedule import (
    _INT64_SAFE,
    _NUMPY_MIN_WORK,
    Lattice,
    LatticeStage,
    _difference_table,
    _fits_int64,
    _keyed,
    _sweep_batch,
    _table_batch,
    copy_windows,
    overlap_batch,
    tuple_overlaps,
)


def per_shift(step) -> list:
    """A step of ``overlap_batch`` as one (delta, multiplicity) list per
    shift: an array step's (counts, keys, index, mults) split at its counts."""
    if type(step) is not tuple:
        return step
    counts, keys, index, mults = step
    pairs = list(zip(np.asarray(keys)[index].tolist(), mults.tolist()))
    ends = np.cumsum(counts).tolist()
    return [pairs[i:j] for i, j in zip([0, *ends], ends)]


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
# a staircase stage with r = 64 so that the NumPy sweep runs too
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
    scale = factor * stage.denominator * shift.denominator
    lattice = Lattice(scale, isinstance(shift, Sqrt2) or isinstance(stage.h, Sqrt2))
    (got,) = per_shift(sched.overlaps(stage.n, [lattice.encode(shift)], lattice=lattice))
    assert [(lattice.decode(d), m) for d, m in got] == reference_overlap_pairs(stage, shift)


def reference_tuple_step(stage, x):
    """The m-point step at the shift tuple *x* by plain loops: delta vectors
    of copy j0 with copies j'_i of each shift's window, as first met."""
    counts = {}
    for windows in zip(*(copy_windows(stage, xi) for xi in x)):
        for deltas in product(*windows):
            counts[deltas] = counts.get(deltas, 0) + 1
    return list(counts.items())


@pytest.mark.parametrize("key", [("asym49", "rational"), ("asym49", "sqrt2"), ("thm44", "sqrt2")], ids="-".join)
def test_schedule_takes_the_tuple_steps(key):
    """The m-point step comes from ``Schedule.tuple_overlaps``, taken anew
    each time it is asked for; on one shift, its copy windows count the
    deltas of ``overlap_pairs``."""
    sched = SCHEDULES[key]
    stage = sched.stage(2)
    coarse, fine = (Lattice(k * stage.denominator, type(stage.grid.h) is tuple) for k in (1, 2))
    offs = stage.offsets
    shifts = list(dict.fromkeys(coarse.encode(x) for x in (0 * stage.h, offs[1] - offs[0], offs[0] - offs[-1], offs[-1])))
    xs = list(product(shifts, repeat=2))
    # the same coordinates on two lattices are two shift tuples
    for lattice in (coarse, fine):
        view = stage.on_lattice(lattice)
        steps = sched.tuple_overlaps(2, xs, lattice)
        assert [list(step) for step in steps] == [reference_tuple_step(view, x) for x in xs]
        again = sched.tuple_overlaps(2, xs, lattice)
        assert again is not steps and [list(step) for step in again] == [list(step) for step in steps]
        for x in shifts:
            (single,) = tuple_overlaps(view, [(x,)])
            assert {deltas: mult for (deltas,), mult in single} == dict(overlap_pairs(view, x))
            assert Counter(chain.from_iterable(copy_windows(view, x))) == Counter(dict(per_shift(sched.overlaps(2, [x], lattice))[0]))


# (schedule, stage, on a Q(sqrt 2) lattice): asym49's stage 1 has no period
# and its stage 2 has one; thm44's stage 2 is on (a, b) pairs
TUPLE_STAGES = [(("asym49", "rational"), n, pairs) for n in (1, 2) for pairs in (False, True)]
TUPLE_STAGES += [(("asym49", "sqrt2"), 1, True), (("thm44", "sqrt2"), 2, True)]
TUPLE_IDS = [f"{name}-{mode}-{n}-{'pairs' if pairs else 'ints'}" for (name, mode), n, pairs in TUPLE_STAGES]


def repeating_tuples(stage, lattice):
    """The coordinates of a few shifts of *stage* on *lattice*, some with
    deltas and some with none, to draw repeating shift tuples from."""
    h, offs = stage.h, stage.offsets
    shifts = (0 * h, offs[1] - offs[0], offs[0] - offs[-1], offs[-1] - offs[0], h / 3, -h / 2, 2 * h)
    return list(dict.fromkeys(lattice.encode(x) for x in shifts))


def reaching(monkeypatch, reached: Counter):
    """Count each (route, coordinate) that the m-point step reaches: the
    copy windows, or the closed-form range of an equally spaced stage."""
    for name in ("copy_windows", "_periodic_deltas"):
        original = getattr(schedule_module, name)

        def spy(stage, shift, *rest, original=original, name=name):
            reached[name, shift] += 1
            return original(stage, shift, *rest)

        monkeypatch.setattr(schedule_module, name, spy)


@pytest.mark.parametrize("key, n, pairs", TUPLE_STAGES, ids=TUPLE_IDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_tuple_step_reaches_each_distinct_coordinate_once(key, n, pairs, data):
    """Batches of m = 3 and 4 whose tuples repeat coordinates, within a
    tuple and across tuples: the step equals the per-tuple sweep
    (``reference_tuple_step``, on the same offsets with no period for an
    equally spaced stage), order included, and each distinct coordinate's
    windows or range are built once."""
    stage = SCHEDULES[key].stage(n)
    lattice = Lattice(6 * stage.denominator, pairs)
    view, coordinates = stage.on_lattice(lattice), repeating_tuples(stage, lattice)
    arity = data.draw(st.integers(2, 3))
    xs = data.draw(st.lists(st.tuples(*[st.sampled_from(coordinates)] * arity), min_size=1, max_size=12))
    reached = Counter()
    with pytest.MonkeyPatch.context() as patched:
        reaching(patched, reached)
        steps = tuple_overlaps(view, xs)
    route = "copy_windows" if view.period is None else "_periodic_deltas"
    assert reached == Counter({(route, x): 1 for x in chain.from_iterable(xs)})
    swept = view._replace(period=None)
    assert [list(step) for step in steps] == [reference_tuple_step(swept, x) for x in xs]


@pytest.mark.parametrize("key, n, pairs", TUPLE_STAGES, ids=TUPLE_IDS)
def test_tuple_guard_is_raised_at_the_same_tuple(monkeypatch, key, n, pairs):
    """With ``GUARD`` below the largest steps of a batch of repeating
    tuples, ordered by step size: the tuples before the first larger step
    are answered, and the batch raises at that tuple, with the guard's
    message, having counted no step after it."""
    stage = SCHEDULES[key].stage(n)
    lattice = Lattice(6 * stage.denominator, pairs)
    view, coordinates = stage.on_lattice(lattice), repeating_tuples(stage, lattice)
    swept = view._replace(period=None)
    xs = sorted(product(coordinates, repeat=2), key=lambda x: len(reference_tuple_step(swept, x)))
    sizes = [len(reference_tuple_step(swept, x)) for x in xs]
    guard = sorted(set(sizes))[-2]
    first = next(i for i, size in enumerate(sizes) if size > guard)
    assert first > 0
    monkeypatch.setattr(schedule_module, "GUARD", guard)
    assert [list(step) for step in tuple_overlaps(view, xs[:first])] == [reference_tuple_step(swept, x) for x in xs[:first]]
    route = "_count_elements" if view.period is None else "_periodic_tuples"
    counted, original = [], getattr(schedule_module, route)
    monkeypatch.setattr(schedule_module, route, lambda *args: counted.append(1) or original(*args))
    with pytest.raises(ResourceError, match=rf"^m-tuple delta blowup at stage {n}: more than {guard} delta vectors$"):
        tuple_overlaps(view, xs)
    assert len(counted) == first + 1


def uneven(r, h1=1):
    """A rational schedule with spacers 0, 1, 0, 1, ...: its offsets are not
    equally spaced, so its stages take the sweep, not the closed form."""
    return Schedule(lambda n, h, w: (r, [0, 1] * (r // 2)), h1=h1)


RATIONAL = sorted(key for key in SCHEDULES if key[1] == "rational")
# offsets fit int64, but a batch of 8 shifts takes 8 h = 2**61 and
# overflows the batched sweep's sort key: the Python sweep takes it
WIDE = uneven(4, h1=2**58).stage(1)
SHIFT_KINDS = ["small", "offset_difference", "next_to_height", "empty_windows", "past_int64"]


@st.composite
def shift_batch(draw):
    """A stage of a rational builder and a batch of scalar shifts for it."""
    key = draw(st.sampled_from([*RATIONAL, None]))
    stage = WIDE if key is None else SCHEDULES[key].stage(draw(st.integers(1, DEPTH[key])))
    offs, h = stage.offsets, stage.h
    unit = Fraction(1, 3 * stage.denominator)
    shifts = []
    for _ in range(draw(st.integers(min_value=1, max_value=80))):
        kind = draw(st.sampled_from(SHIFT_KINDS))
        if kind == "small":
            x = draw(fractions) * h
        elif kind == "offset_difference":
            x = offs[draw(st.integers(0, stage.r - 1))] - offs[draw(st.integers(0, stage.r - 1))]
        elif kind == "next_to_height":  # |x| at h_n, or one lattice unit off it
            x = h + draw(st.integers(-1, 1)) * unit
        elif kind == "empty_windows":  # every delta is at least x - o_r >= h_n
            x = stage.h_next + draw(st.integers(0, 2)) * unit
        else:
            x = Fraction(2**64 + 1, 3)
        shifts.append(x if draw(st.booleans()) else -x)
    return stage, shifts, draw(st.integers(min_value=1, max_value=5))


@settings(max_examples=120, deadline=None)
@given(shift_batch())
def test_overlap_batch_matches_scalar_loop(case):
    """``overlap_batch`` and, wherever its values fit int64, the batched
    NumPy sweep and the difference table themselves, whatever the batch
    rule picks: shift by shift, the (delta, multiplicity) lists of the
    scalar loop."""
    stage, shifts, factor = case
    lattice = Lattice(factor * lcm(stage.denominator, *(x.denominator for x in shifts)), False)
    view, xs = stage.on_lattice(lattice), [lattice.encode(x) for x in shifts]
    expected = [reference_overlap_pairs(stage, x) for x in shifts]

    def decoded(batch):
        return [[(lattice.decode(d), m) for d, m in pairs] for pairs in batch]

    assert decoded(per_shift(overlap_batch(view, xs))) == expected
    if _fits_int64(view, xs):
        assert decoded(per_shift(_sweep_batch(view, xs))) == expected
        assert decoded(per_shift(_table_batch(view, xs))) == expected


def test_batches_past_int64_take_the_python_sweep(numpy_batches):
    view = WIDE.on_lattice(Lattice(1, False))
    xs = [i * view.h // 2 for i in range(-8, 8)]  # enough (shift, copy) pairs for NumPy, but 16 h = 2**62
    assert _fits_int64(view, xs[:4]) and len(xs) * view.r >= _NUMPY_MIN_WORK and not _fits_int64(view, xs)
    expected = [reference_overlap_pairs(WIDE, x) for x in xs]
    assert overlap_batch(view, xs) == expected
    past = [2**62, *xs[1:]]  # one shift past int64
    assert overlap_batch(view, past) == [reference_overlap_pairs(WIDE, 2**62), *expected[1:]]
    assert numpy_batches == []
    assert per_shift(_sweep_batch(view, xs[:4])) == expected[:4]  # 4 h = 2**60 fits


@pytest.mark.parametrize("chunk", [1, 130, 8192])
def test_sweep_splits_a_batch_into_chunks(monkeypatch, chunk):
    """A chunk holds _CHUNK // r shifts, at least one."""
    stage = SCHEDULES["staircase", "rational"].stage(3)
    lattice = Lattice(stage.denominator, False)
    view = stage.on_lattice(lattice)
    xs = [lattice.encode(o - stage.offsets[9]) + k for o in stage.offsets[::4] for k in (-1, 0, 5)]
    expected = [reference_overlap_pairs(stage, lattice.decode(x)) for x in xs]
    monkeypatch.setattr(schedule_module, "_CHUNK", chunk)
    assert [[(lattice.decode(d), m) for d, m in pairs] for pairs in per_shift(_sweep_batch(view, xs))] == expected


def assert_same_array_step(one, other):
    """Two array steps equal entry for entry, with the same dtypes."""
    (counts, keys, index, mults), (other_counts, other_keys, other_index, other_mults) = one, other
    assert keys.dtype == np.int64
    for a, b in ((counts, other_counts), (keys, other_keys), (index, other_index), (mults, other_mults)):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()


@st.composite
def int_stage_batch(draw):
    """A stage on int offsets with unequal gaps (no period), and a batch
    of int shifts for it: near the offset differences, or past them."""
    r, h = draw(st.integers(2, 40)), draw(st.integers(1, 50))
    gaps = draw(st.lists(st.integers(0, 3 * h), min_size=r - 1, max_size=r - 1))
    offsets = list(accumulate((h + g for g in gaps), initial=draw(st.integers(0, h))))
    reach = offsets[-1] - offsets[0] + 2 * h
    shifts = draw(st.lists(st.integers(-reach, reach), min_size=1, max_size=60))
    return LatticeStage(1, r, h, offsets), shifts


@st.composite
def spaced_int_stage_batch(draw):
    """An equally spaced stage on int64 offsets, o_1 + j p with p >= h,
    its last offset and height at up to 60 bits, and a batch of int shifts
    near the table's entries k p, k p + h and k p - h, or anywhere in reach."""
    r = draw(st.integers(2, 100))
    h = draw(st.integers(1, 2 ** draw(st.integers(0, 50))))
    p = h + draw(st.integers(0, min(3 * h, (2**60 - h) // (r - 1) - h)))
    o = draw(st.integers(0, h))
    offsets = [o + j * p for j in range(r)]
    near = st.builds(lambda k, e: k * p + e, st.integers(-r, r), st.sampled_from([0, h, -h, h - 1, 1 - h, h + 1, -h - 1]))
    reach = r * p + h
    shifts = draw(st.lists(st.one_of(near, st.integers(-reach, reach)), min_size=1, max_size=60))
    return LatticeStage(1, r, h, offsets, p), shifts


@settings(max_examples=150, deadline=None)
@given(spaced_int_stage_batch())
def test_the_closed_form_table_is_the_difference_table(case):
    """An equally spaced stage's table, in closed form from r and p with
    no offset read, is ``np.unique`` of its r x r differences, entry for
    entry and dtype for dtype."""
    stage, _ = case
    closed = _difference_table(stage._replace(offsets=None))
    offs = np.array(stage.offsets, dtype=np.int64)
    for got, expected in zip(closed, np.unique(offs - offs[:, None], return_counts=True)):
        assert got.dtype == expected.dtype and got.tolist() == expected.tolist()
    assert len(closed[0]) == 2 * stage.r - 1


@settings(max_examples=300, deadline=None)
@given(st.one_of(int_stage_batch(), spaced_int_stage_batch()))
def test_table_sweep_and_scalar_loop_agree(case):
    """The difference table, in closed form on an equally spaced stage,
    and the sweep give the same array step, entry for entry; it and
    ``overlap_batch``, array or list step, are the scalar loop shift by
    shift."""
    stage, xs = case
    table = _table_batch(stage, xs)
    assert_same_array_step(table, _sweep_batch(stage, xs))
    expected = [reference_overlap_pairs(stage, x) for x in xs]
    assert per_shift(table) == per_shift(overlap_batch(stage, xs)) == expected


@pytest.fixture()
def routes(monkeypatch):
    """The route of every array step taken."""
    taken = []
    for route in ("_sweep_batch", "_table_batch"):
        original = getattr(schedule_module, route)

        def spy(stage, shifts, route=route, original=original):
            taken.append(route)
            return original(stage, shifts)

        monkeypatch.setattr(schedule_module, route, spy)
    return taken


def test_the_table_rule_at_its_boundaries(monkeypatch, routes):
    """A stage with no period takes the difference table when r <=
    len(shifts) and r**2 <= GUARD, the sweep otherwise, and both agree
    with the scalar loop on either side of each bound.  An equally spaced
    stage takes its table in closed form past both bounds."""
    view = uneven(16).stage(1).on_lattice(Lattice(3, False))
    assert view.period is None and view.r == 16
    xs = [view.offsets[i % 16] - view.offsets[(5 * i) % 16] + i % 5 - 2 for i in range(17)]
    for count, guard, route in ((16, 256, "_table_batch"), (15, 256, "_sweep_batch"), (16, 255, "_sweep_batch")):
        monkeypatch.setattr(schedule_module, "GUARD", guard)
        routes.clear()
        step = overlap_batch(view, xs[:count])
        assert routes == [route]
        assert per_shift(step) == [reference_overlap_pairs(view, x) for x in xs[:count]]
    spaced = flat_schedule(16).stage(2).on_lattice(Lattice(3, False))
    assert spaced.period is not None and spaced.r == 16
    ys = [spaced.offsets[i % 16] - spaced.offsets[(5 * i) % 16] + i % 5 - 2 for i in range(15)]
    routes.clear()  # GUARD is still 255 < r**2, and 15 shifts < r
    step = overlap_batch(spaced, ys)
    assert routes == ["_table_batch"]
    assert per_shift(step) == [reference_overlap_pairs(spaced, x) for x in ys]


@pytest.mark.parametrize("r, h", [(2, 1), (3, 2**40), (64, (_INT64_SAFE - 1) // 64)])
def test_the_closed_form_table_at_the_int64_edge(routes, r, h):
    """(r - 1) p as close below ``_INT64_SAFE`` as the stage's last offset
    plus h allows: the batch takes the closed-form table and equals the
    scalar loop and the sweep; one unit more takes the list step, with the
    same lists."""
    p = (_INT64_SAFE - 1 - h) // (r - 1)
    stage = LatticeStage(1, r, h, [j * p for j in range(r)], p)
    assert stage.offsets[-1] + h < _INT64_SAFE <= stage.offsets[-1] + h + r - 1
    xs = [k * p + e for k in (1 - r, -1, 0, 1, r - 1) for e in (0, h - 1, 1 - h, h, -h)]
    xs += [_INT64_SAFE - 1, 1 - _INT64_SAFE] * (_NUMPY_MIN_WORK // r)
    expected = [reference_overlap_pairs(stage, x) for x in xs]
    step = overlap_batch(stage, xs)
    assert routes == ["_table_batch"] and type(step) is tuple
    assert per_shift(step) == expected
    assert_same_array_step(step, _sweep_batch(stage, xs))
    routes.clear()
    wider = stage._replace(offsets=[j * (p + 1) for j in range(r)], period=p + 1)
    assert not _fits_int64(wider, xs)
    assert overlap_batch(wider, xs) == [reference_overlap_pairs(wider, x) for x in xs] and routes == []


def test_a_batch_of_empty_windows(routes):
    """Shifts past every offset difference have no delta: the table, the
    sweep and the scalar loop give each an empty list, and the step no key."""
    view = uneven(16).stage(1).on_lattice(Lattice(1, False))
    reach = view.offsets[-1] - view.offsets[0] + view.h
    xs = [sign * (reach + k) for k in range(10) for sign in (1, -1)]
    step = overlap_batch(view, xs)
    assert routes == ["_table_batch"]
    assert_same_array_step(step, _sweep_batch(view, xs))
    assert step[1].tolist() == [] and step[0].tolist() == [0] * len(xs)
    assert per_shift(step) == [reference_overlap_pairs(view, x) for x in xs] == [[]] * len(xs)


@pytest.mark.parametrize("extra", [-1, 0, 1], ids=["span-count-1", "span-count", "span-count+1"])
@pytest.mark.parametrize("low", [-7, 2**61 - 500])
def test_counted_keys_equal_np_unique(monkeypatch, extra, low):
    """Deltas spanning count - 1 and count values are counted, count + 1
    go to ``np.unique``; keys and index are np.unique's either way."""
    count = 300
    rng = np.random.default_rng(extra + 2)
    deltas = rng.integers(0, count + extra, size=count) + low
    deltas[:2] = low, low + count + extra - 1
    keys, inverse = np.unique(deltas, return_inverse=True)
    sorts, unique = [], np.unique
    monkeypatch.setattr(np, "unique", lambda *args, **kwargs: sorts.append(1) or unique(*args, **kwargs))
    counts, got_keys, index, mults = _keyed(np.array([count]), deltas, np.ones(count, dtype=np.int64))
    assert got_keys.dtype == keys.dtype and got_keys.tolist() == keys.tolist()
    assert index.dtype == inverse.dtype and index.tolist() == inverse.tolist()
    assert bool(sorts) == (extra > 0)
    far = np.array([-(2**62), 2**62, 0])  # a span past int64: max - min would wrap
    assert _keyed(np.array([3]), far, np.ones(3, dtype=np.int64))[1].tolist() == [-(2**62), 0, 2**62]


def test_the_table_and_the_sweep_name_the_same_guard(monkeypatch):
    view = uneven(16).stage(2).on_lattice(Lattice(1, False))
    xs = [view.offsets[i] - view.offsets[0] for i in range(view.r)]
    most = max(len(pairs) for pairs in per_shift(_sweep_batch(view, xs)))
    monkeypatch.setattr(schedule_module, "GUARD", most - 1)
    for route in (_table_batch, _sweep_batch):
        with pytest.raises(ResourceError, match=f"^overlap blowup at stage 2: more than {most - 1} deltas$"):
            route(view, xs)


@pytest.mark.parametrize("key, batched", [(("staircase", "rational"), True), (("thm44", "sqrt2"), False)])
def test_overlaps_takes_each_step_it_is_asked_for(monkeypatch, numpy_batches, key, batched):
    """The schedule keeps no step, so GUARD bounds each step alone: two
    levels of 80 shifts of stage 3, in two orders, whose deltas together
    pass GUARD while each shift's fit, are each taken whenever asked for,
    in both query orders: an array step (the staircase's r = 64 stage) as
    a list step, and the same stage on a lattice past int64 takes the list
    step."""
    sched = SCHEDULES[key]
    stage = sched.stage(3)
    lattice = Lattice(3 * stage.denominator, key[1] == "sqrt2")
    xs = [lattice.encode(Fraction(i, 3)) for i in range(-40, 40)]
    expected = [overlap_pairs(stage.on_lattice(lattice), x) for x in xs]
    monkeypatch.setattr(schedule_module, "GUARD", max(map(len, expected)))

    def check(lattice, xs, expected, array):
        levels = [(xs, expected), (xs[::-1], expected[::-1])]
        for (first, first_expected), (second, second_expected) in (levels, levels[::-1]):
            fresh = Schedule(sched._params, h1=sched.h1, w1=sched.w1, mode=sched.mode)
            numpy_batches.clear()
            one, other = fresh.overlaps(3, first, lattice), fresh.overlaps(3, second, lattice)
            assert (per_shift(one), per_shift(other)) == (first_expected, second_expected)
            assert bool(numpy_batches) == array and (type(one) is tuple) == array
            for level, level_expected, taken in ((first, first_expected, one), (second, second_expected, other)):
                again = fresh.overlaps(3, level, lattice)
                assert again is not taken and per_shift(again) == level_expected

    check(lattice, xs, expected, batched)
    if batched:
        wide = Lattice(2**62 * lattice.scale, False)
        ys = [2**62 * x for x in xs]
        assert not _fits_int64(stage.on_lattice(wide), ys)
        check(wide, ys, [[(2**62 * d, m) for d, m in pairs] for pairs in expected], False)


def test_python_sweep_beyond_int64():
    wide = uneven(64, h1=2**62).stage(2)
    lattice = Lattice(3, False)
    assert not _fits_int64(wide.on_lattice(lattice), [0])
    shift = Fraction(2**68 + 1, 3)
    assert overlap_pairs(wide, shift) == reference_overlap_pairs(wide, shift) != []
    # a shift past int64 on a stage that does fit: the sweep skips NumPy
    narrow = SCHEDULES["asym49", "rational"].stage(1)
    view = narrow.on_lattice(lattice)
    assert _fits_int64(view, [0])
    assert overlap_pairs(view, lattice.encode(shift)) == reference_overlap_pairs(narrow, shift) == []


# equally spaced stages, answered in closed form: (schedule, stages).  On
# flat stages p = h; thm44 at r_cap = 256 has the constant sqrt(2) s spacer
# at stages 6 and 8 and zero spacers below the top at stage 7; "constant"
# has p > h, a bottom spacer and a different top spacer, which do not
# enter; "past-float" has heights beyond float range.  flat(4096), whose
# scalar loop takes 0.1 s a shift, is probed at its edges below
PERIODIC = {
    "flat3": (flat_schedule(3), (1, 3)),
    "thm44": (thm44_schedule(s_values=(2,), q_max=2, k_max=1, r_cap=256), (6, 7, 8)),
    "constant": (Schedule(lambda n, h, w: (7, [Fraction(2, 3)] * 6 + [5], Fraction(1, 2))), (1, 2)),
    "past-float": (Schedule(lambda n, h, w: (3, [Sqrt2(0, 1)] * 2 + [1]), h1=Sqrt2(2**1100, 3), mode="sqrt2"), (1, 2)),
}
PERIODIC_KINDS = ["edge", "step", "window_edge", "small", "past_int64"]


@st.composite
def periodic_case(draw, keys=tuple(sorted(PERIODIC)), count=1):
    """An equally spaced stage of one of the PERIODIC *keys*, a lattice for
    it (a rational stage also on a Q(sqrt 2) lattice) and *count* shifts,
    each moved off its kind's value by 0, one lattice unit or a near tie
    (3 + 2 sqrt 2)**-n of one."""
    sched, stages = PERIODIC[draw(st.sampled_from(keys))]
    stage = sched.stage(draw(st.sampled_from(stages)))
    pairs = isinstance(stage.h, Sqrt2) or draw(st.booleans())
    factor = draw(st.integers(1, 3))
    lattice = Lattice(factor * stage.denominator, pairs)
    h, p, r = stage.h, stage.offsets[1] - stage.offsets[0], stage.r
    unit = Fraction(1, lattice.scale)
    nudges = [0, unit, -unit]
    if pairs:
        a, b = pell(draw(st.integers(1, 60)))
        nudges += [Sqrt2(0, unit), Sqrt2(0, -unit), Sqrt2(a, -b) * unit, Sqrt2(-a, b) * unit]
    shifts = []
    for _ in range(count):
        kind = draw(st.sampled_from(PERIODIC_KINDS))
        if kind == "edge":  # |x| = h
            x = draw(st.sampled_from([h, -h]))
        elif kind == "step":  # a delta on 0
            x = draw(st.integers(-r - 1, r + 1)) * p
        elif kind == "window_edge":  # a delta on h or -h
            x = draw(st.integers(1 - r, r - 1)) * p + draw(st.sampled_from([h, -h]))
        elif kind == "small":
            x = Fraction(draw(st.integers(-9, 9)), factor) * h
        else:
            x = draw(st.integers(-r, r)) * p + draw(st.sampled_from([2**64, -(2**64), 2**70 + 1]))
        shifts.append(lattice.encode(x + draw(st.sampled_from(nudges))))
    return stage, lattice, tuple(shifts)


@settings(max_examples=80, deadline=None)
@given(periodic_case())
def test_closed_form_matches_scalar_loop(case):
    """On equally spaced offsets ``overlap_pairs`` answers in closed form,
    taking neither the NumPy sweep nor a sign test: the lists of the
    scalar loop, element for element."""
    stage, lattice, (x,) = case
    view = stage.on_lattice(lattice)
    assert view.period is not None
    signs, sign = [], schedule_module.sqrt2_sign
    schedule_module.sqrt2_sign = lambda a, b: signs.append(1) or sign(a, b)
    try:
        got = [(lattice.decode(d), m) for d, m in overlap_pairs(view, x)]
    finally:
        schedule_module.sqrt2_sign = sign
    assert signs == []
    assert got == reference_overlap_pairs(stage, lattice.decode(x))
    assert len(got) <= 2


def assert_tuple_step_is_the_sweep(view, xs):
    """The m-point step of an equally spaced *view* at the shift tuples
    *xs* is its closed form, which sweeps no copy window, and equals the
    sweep of the same offsets with no period, order included."""
    windows, copy = [], schedule_module.copy_windows
    schedule_module.copy_windows = lambda *args: windows.append(1) or copy(*args)
    try:
        closed = [list(step) for step in tuple_overlaps(view, xs)]
    finally:
        schedule_module.copy_windows = copy
    assert windows == []
    assert closed == [list(step) for step in tuple_overlaps(view._replace(period=None), xs)]


@pytest.mark.parametrize("key", sorted(PERIODIC))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_closed_form_tuple_step_equals_the_sweep(key, data):
    """m = 3 and 4 on each PERIODIC fixture: a batch of three shift
    tuples, shifts of every kind."""
    count = data.draw(st.integers(2, 3))
    stage, lattice, shifts = data.draw(periodic_case(keys=(key,), count=3 * count))
    xs = [shifts[i : i + count] for i in range(0, len(shifts), count)]
    assert_tuple_step_is_the_sweep(stage.on_lattice(lattice), xs)


@st.composite
def spaced_stage(draw):
    """A random equally spaced lattice stage, on ints or (a, b) pairs, with
    p >= h, and shift tuples of m - 1 = 2 or 3 shifts near the deltas
    k p, k p + h and k p - h."""
    r = draw(st.integers(2, 9))
    if draw(st.booleans()):
        h = (draw(st.integers(1, 20)), draw(st.integers(0, 10)))
        p = (h[0] + draw(st.integers(0, 10)), h[1] + draw(st.integers(0, 5)))
        o = (draw(st.integers(0, 5)), draw(st.integers(0, 3)))
        offsets = [(o[0] + j * p[0], o[1] + j * p[1]) for j in range(r)]
        near = st.tuples(st.integers(-h[0] - 2, h[0] + 2), st.integers(-h[1] - 1, h[1] + 1))

        def shift(k, e):
            return (k * p[0] + e[0], k * p[1] + e[1])

    else:
        h = draw(st.integers(1, 30))
        p = h + draw(st.integers(0, 10))
        o = draw(st.integers(0, 5))
        offsets = [o + j * p for j in range(r)]
        near = st.one_of(st.integers(-h - 2, h + 2), st.sampled_from([h, -h, 0]))

        def shift(k, e):
            return k * p + e

    count = draw(st.integers(2, 3))
    one = st.builds(shift, st.integers(-r, r), near)
    xs = draw(st.lists(st.tuples(*[one] * count), min_size=1, max_size=4))
    return LatticeStage(1, r, h, offsets, p), xs


@settings(max_examples=200, deadline=None)
@given(spaced_stage())
def test_closed_form_tuple_step_equals_the_sweep_on_random_stages(case):
    assert_tuple_step_is_the_sweep(*case)


FLAT4096 = flat_schedule(4096).stage(2)
H4096 = 3 * 4096  # its height (and step) in units of 1/3


@pytest.mark.parametrize(
    "x",
    # the edges +-h, steps k p with k = 0, 1, r - 1 and r, each one unit
    # of 1/3 either side, and shifts past int64
    [0, 1, -1, H4096, -H4096, H4096 - 1, -H4096 - 1, H4096 + 1, 4095 * H4096 + 1, -4095 * H4096 - 1, 4096 * H4096 - 1, 2**64 + 1, -(2**70)],
)
def test_closed_form_on_a_wide_flat_stage(numpy_batches, x):
    """One shift, and a batch of it as the step of a level: the table in
    closed form where its values fit int64, the scalar one past it."""
    lattice = Lattice(3, False)
    view = FLAT4096.on_lattice(lattice)
    assert view.period == view.h == H4096
    expected = reference_overlap_pairs(FLAT4096, lattice.decode(x))
    assert [(lattice.decode(d), m) for d, m in overlap_pairs(view, x)] == expected
    step = overlap_batch(view, [x, -x])
    assert (type(step) is tuple) == _fits_int64(view, [x, -x]) and numpy_batches == []
    assert [(lattice.decode(d), m) for d, m in per_shift(step)[0]] == expected


def _sweep_overlaps(view, x):
    """The copy-window sweep of *view* at *x*, on the same offsets with no period."""
    return overlap_pairs(view._replace(period=None), x)


@pytest.mark.parametrize(
    "stage",
    [
        PERIODIC["thm44"][0].stage(8),
        Schedule(lambda n, h, w: (256, [Sqrt2(0, 1)] * 256), h1=Sqrt2(2**1100, 3), mode="sqrt2").stage(1),
    ],
    ids=["float-quotient", "exact-floor"],
)
def test_closed_form_answers_a_far_shift_at_once(monkeypatch, stage):
    """A shift near or far past the last copy costs a few sign tests, not
    r, within float range and past it."""
    view = stage.on_lattice(Lattice(stage.denominator, True))
    xs = [(k * view.period[0] + 1, k * view.period[1]) for k in (view.r - 1, view.r + 5, 10**40, -(10**40))]
    expected = [_sweep_overlaps(view, x) for x in xs]
    signs, sign = [], schedule_module.sqrt2_sign
    monkeypatch.setattr(schedule_module, "sqrt2_sign", lambda a, b: signs.append(1) or sign(a, b))
    assert [overlap_pairs(view, x) for x in xs] == expected
    assert len(signs) <= 4 * len(xs)


@pytest.mark.parametrize("mode", ["rational", "sqrt2"])
def test_period_is_read_from_the_encoded_spacers(mode):
    """Equal spacer values that are distinct objects still space the
    offsets equally; the top spacer and the bottom spacer do not enter."""
    one = (lambda: Fraction(1, 3)) if mode == "rational" else (lambda: Sqrt2(0, Fraction(1, 3)))
    equal = Schedule(lambda n, h, w: (5, [one() for _ in range(4)] + [7], 2), mode=mode).stage(1)
    assert equal.grid.period == Lattice(equal.denominator, mode == "sqrt2").encode(equal.h + one())
    unequal = Schedule(lambda n, h, w: (5, [one() for _ in range(3)] + [0, 0]), mode=mode).stage(1)
    assert unequal.grid.period is None


@pytest.mark.parametrize("mode", ["rational", "sqrt2"])
def test_each_spacer_object_is_coerced_once(monkeypatch, mode):
    """A stage whose spacers repeat a few objects is built with one coerce
    per distinct object (and one for the bottom spacer): equal values that
    are distinct objects count apart.  The stage is the one built from a
    new object at every place."""
    third, half, other_half, bottom = "1/3", Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)
    values = [third, half, third, other_half, half] * 20 + [Fraction(5)]
    shared = Schedule(lambda n, h, w: (len(values), values, bottom), mode=mode)
    calls, coerce = Counter(), schedule_module.coerce
    monkeypatch.setattr(schedule_module, "coerce", lambda v, mode: calls.update([id(v)]) or coerce(v, mode))
    stage = shared.stage(1)
    assert calls == Counter({id(v): 1 for v in [*values, bottom]})
    monkeypatch.setattr(schedule_module, "coerce", coerce)
    fresh = Schedule(lambda n, h, w: (len(values), [Fraction(str(v)) for v in values], Fraction(1, 4)), mode=mode).stage(1)
    assert (stage.spacers, stage.lattice, stage.grid, stage.h_next) == (fresh.spacers, fresh.lattice, fresh.grid, fresh.h_next)


def test_equally_spaced_stages_skip_both_sweeps(monkeypatch, numpy_batches):
    """Equally spaced stages reach neither the NumPy sweep or a
    difference table built from their offsets nor the copy windows of the
    m = 2 step; staircase and asym49 spacer stages still do (the
    staircase's stage 3, r = 64 at 79 shifts, by its table)."""
    windows, copy = [], schedule_module.copy_windows
    monkeypatch.setattr(
        schedule_module, "copy_windows", lambda stage, shift, floats=None: windows.append(stage.n) or copy(stage, shift, floats)
    )

    def step(sched, n, count):
        """Stage n of *sched* at the 2 count - 1 shifts i h / count, |i| <
        count, each with a delta; whether the stage is equally spaced."""
        stage = sched.stage(n)
        lattice = Lattice(count * stage.denominator, sched.mode == "sqrt2")
        xs = [lattice.encode(stage.h * Fraction(i, count)) for i in range(1 - count, count)]
        assert all(per_shift(sched.overlaps(n, xs, lattice)))
        return stage.grid.period is not None

    thm44 = thm44_schedule(s_values=(2,), q_max=2, k_max=1, r_cap=256)
    assert step(flat_schedule(64), 2, 40)
    assert step(staircase34_schedule((2, 3), base=4, r_cap=64), 1, 40)
    assert step(asym49_schedule(r_cap=16), 2, 40)
    assert step(thm44, 6, 40) and step(thm44, 7, 40)
    assert numpy_batches == [] and windows == []
    assert not step(staircase34_schedule((2, 3), base=4, r_cap=64), 3, 40) and numpy_batches
    assert not step(asym49_schedule(r_cap=16), 1, 6) and not step(thm44, 4, 6)
    assert set(windows) == {1, 4}


def test_stage_view_follows_the_latest_lattice():
    stage = SCHEDULES["staircase", "sqrt2"].stage(3)
    coarse = Lattice(stage.denominator, True)
    fine = Lattice(6 * stage.denominator, True)
    for lattice in (coarse, fine, coarse):
        view = stage.on_lattice(lattice)
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


def test_float_filter_defers_near_ties_to_the_exact_sign(monkeypatch):
    # offsets 0 < 1 + eps < 3 + eps with eps = 99 - 70 sqrt 2; shifts that
    # put a window end within (3 + 2 sqrt 2)**-n of an offset, where the
    # float offsets of the sweep cannot tell the side
    spacers = (Sqrt2(99, -70), Sqrt2(1), Sqrt2(0))
    stage = Schedule(lambda n, h, w: (3, spacers), mode="sqrt2").stage(1)
    # the float filter runs: a shift clear of every window end takes no sign test
    signs, sign = [], schedule_module.sqrt2_sign
    monkeypatch.setattr(schedule_module, "sqrt2_sign", lambda a, b: signs.append(1) or sign(a, b))
    copy_windows(stage.on_lattice(Lattice(1, True)), (0, 0))
    assert signs == []
    offs = stage.offsets
    for n in (2, 20, 40):
        a, b = pell(n)
        for tiny in (Sqrt2(0), Sqrt2(a, -b), Sqrt2(-a, b)):
            for i in range(3):
                for k in range(3):
                    for edge in (stage.h, -stage.h, 0):
                        shift = offs[i] - offs[k] + edge + tiny
                        assert overlap_pairs(stage, shift) == reference_overlap_pairs(stage, shift)


def test_copy_windows_of_an_equally_spaced_pair_stage_use_the_float_filter(monkeypatch):
    """The m-point step sweeps the copy windows of equally spaced stages
    too; on (a, b) pairs it decides the window ends on floats, as on any
    other stage, and leaves only near ties to the exact sign."""
    stage = PERIODIC["thm44"][0].stage(8)
    lattice = Lattice(3 * stage.denominator, True)
    view, x = stage.on_lattice(lattice), lattice.encode(stage.h / 3)
    assert view.period is not None
    (ha, hb), (sa, sb) = view.h, x
    expected = []
    for oa, ob in view.offsets:  # every pair, by the exact sign
        deltas = ((sa + pa - oa, sb + pb - ob) for pa, pb in view.offsets)
        expected.append([(a, b) for a, b in deltas if sqrt2_sign(ha - a, hb - b) > 0 and sqrt2_sign(ha + a, hb + b) > 0])
    signs, sign = [], schedule_module.sqrt2_sign
    monkeypatch.setattr(schedule_module, "sqrt2_sign", lambda a, b: signs.append(1) or sign(a, b))
    assert copy_windows(view, x) == expected
    assert len(signs) < view.r / 8


def test_the_m_point_step_builds_the_float_offsets_once_per_batch(monkeypatch):
    """thm44 (r_cap 256): at stage 8, equally spaced, every copy window is
    the one the exact sign finds pair by pair, and the closed form of the
    m-point step builds no float offsets at all; at stage 9, not equally
    spaced, a batch of shift tuples builds them once.  Both steps are the
    ones of plain loops over the copy windows."""
    built, build = [], schedule_module._pair_floats
    for n, floats in ((8, 0), (9, 1)):
        stage = PERIODIC["thm44"][0].stage(n)
        lattice = Lattice(3 * stage.denominator, True)
        view, offs = stage.on_lattice(lattice), stage.offsets
        assert (view.period is not None) == (n == 8)
        shifts = [lattice.encode(x) for x in (0 * stage.h, stage.h / 3, offs[1] - offs[0], offs[2] - offs[0] - stage.h)]
        ha, hb = view.h
        if n == 8:
            for sa, sb in shifts:
                expected = []
                for oa, ob in view.offsets:
                    deltas = ((sa + pa - oa, sb + pb - ob) for pa, pb in view.offsets)
                    expected.append([(a, b) for a, b in deltas if sqrt2_sign(ha - a, hb - b) > 0 and sqrt2_sign(ha + a, hb + b) > 0])
                assert copy_windows(view, (sa, sb)) == expected
        xs = list(product(shifts, repeat=2))
        monkeypatch.setattr(schedule_module, "_pair_floats", lambda offsets: built.append(n) or build(offsets))
        steps = tuple_overlaps(view, xs)
        monkeypatch.setattr(schedule_module, "_pair_floats", build)
        assert built.count(n) == floats
        assert [list(step) for step in steps] == [reference_tuple_step(view, x) for x in xs]


def test_the_pair_step_builds_the_float_offsets_once_per_batch(monkeypatch):
    """thm44 (r_cap 256) at stage 9, not equally spaced: a list step on
    (a, b) pairs builds the float offsets once for its batch, and each
    shift gets its own :func:`overlap_pairs`."""
    stage = PERIODIC["thm44"][0].stage(9)
    lattice = Lattice(3 * stage.denominator, True)
    view, offs = stage.on_lattice(lattice), stage.offsets
    assert view.period is None and view.r * 4 >= _NUMPY_MIN_WORK
    xs = [lattice.encode(x) for x in (0 * stage.h, stage.h / 3, offs[1] - offs[0], offs[2] - offs[0] - stage.h)]
    expected = [overlap_pairs(view, x) for x in xs]
    built, build = [], schedule_module._pair_floats
    monkeypatch.setattr(schedule_module, "_pair_floats", lambda offsets: built.append(1) or build(offsets))
    assert overlap_batch(view, xs) == expected
    assert len(built) == 1


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
