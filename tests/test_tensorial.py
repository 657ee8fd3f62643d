import itertools
import math
import random

import pytest

from rank1flow import CorrelationResult, permanent, product_correlate, sym_tensor_correlate
from rank1flow.correlate import perturbation_bound
from rank1flow import correlate, flat_schedule, random_step_function
from rank1flow.errors import ResourceError


def brute_permanent(m):
    n = len(m)
    total = 0j
    for perm in itertools.permutations(range(n)):
        prod = complex(1)
        for i, j in enumerate(perm):
            prod *= m[i][j]
        total += prod
    return total


def test_permanent_small_identities():
    assert permanent([]) == 1
    assert permanent([[5]]) == 5
    assert permanent([[1, 1], [1, 1]]) == 2
    assert permanent([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


def test_permanent_all_ones_is_factorial():
    for n in range(1, 7):
        m = [[1.0] * n for _ in range(n)]
        assert permanent(m) == pytest.approx(math.factorial(n))


def test_permanent_matches_brute_force():
    rng = random.Random(0)
    for n in range(2, 7):
        m = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)] for _ in range(n)]
        assert permanent(m) == pytest.approx(brute_permanent(m), abs=1e-9)


def test_permanent_rejects_non_square():
    with pytest.raises(ValueError):
        permanent([[1, 2]])


def test_permanent_size_guard():
    n = 21
    with pytest.raises(ResourceError):
        permanent([[1.0] * n for _ in range(n)])


def _res(v, b=0.0):
    return CorrelationResult(value=complex(v), error_bound=b, stage_used=1)


def test_sym_tensor_correlate_constant_gram():
    # permanent of c * (all ones) is c^n * n!
    for n in (1, 2, 3):
        gram = [[_res(0.5) for _ in range(n)] for _ in range(n)]
        out = sym_tensor_correlate(gram)
        assert out.value == pytest.approx(0.5**n * math.factorial(n))
        assert out.error_bound == 0.0


def test_sym_tensor_correlate_bound_is_first_order():
    gram = [[_res(1.0, 0.1), _res(0.0, 0.1)], [_res(0.0, 0.1), _res(1.0, 0.1)]]
    out = sym_tensor_correlate(gram)
    assert out.value == pytest.approx(1.0)
    # every entry may be off by 0.1: at worst perm([[1.1, 0.1], [0.1, 1.1]]) - 1
    # = 0.22, above the first-order row-replacement estimate 0.2
    assert out.error_bound >= 0.22 - 1e-12


def test_perturbation_bound_single_factor_is_exact():
    for v, e in ((0.1, 0.3), (0.7, 1e-17), (-2.5, 0.125)):
        assert perturbation_bound(math.prod, [abs(v)], [e]) == e


def test_perturbation_bound_covers_every_corner():
    rng = random.Random(3)
    for m in range(1, 5):
        values = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(m)]
        bounds = [rng.uniform(0, 0.5) for _ in range(m)]
        bound = perturbation_bound(math.prod, [abs(v) for v in values], bounds)
        exact = math.prod(values)
        for signs in itertools.product((-1, 1), repeat=m):
            moved = math.prod(v + s * e * v / abs(v) for v, s, e in zip(values, signs, bounds))
            assert abs(moved - exact) <= bound + 1e-12
        # the all-outward corner attains it
        outward = math.prod(v + e * v / abs(v) for v, e in zip(values, bounds))
        assert abs(outward - exact) == pytest.approx(bound)


def test_product_correlate_factorizes_exactly():
    scheds = [flat_schedule(2), flat_schedule(3)]
    rng = random.Random(5)
    comps = []
    for sched in scheds:
        h = sched.height(1)
        f = random_step_function(1, h, 4, rng)
        g = random_step_function(1, h, 4, rng)
        comps.append((sched, 1, f, g))
    t = 1
    out = product_correlate(comps, t)
    expected = complex(1)
    for sched, scale, f, g in comps:
        expected *= correlate(sched, f, g, scale * t).value
    assert out.value == expected
