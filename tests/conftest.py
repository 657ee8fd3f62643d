import importlib
import random
from collections import Counter

import pytest

from rank1flow import (
    asym49_schedule,
    flat_schedule,
    staircase34_schedule,
    symmetrize,
    thm44_schedule,
)
from rank1flow import schedule as schedule_module

correlate_module = importlib.import_module("rank1flow.correlate")  # the package exports a function of that name


@pytest.fixture()
def rng():
    return random.Random(0)


@pytest.fixture()
def numpy_batches(monkeypatch):
    """The sizes of the batches of stages with no period that take an
    array step: the NumPy sweep or the difference table."""
    sizes = []
    for route in ("_sweep_batch", "_table_batch"):
        original = getattr(schedule_module, route)

        def spy(stage, shifts, original=original):
            if stage.period is None:
                sizes.append(len(shifts))
            return original(stage, shifts)

        monkeypatch.setattr(schedule_module, route, spy)
    return sizes


@pytest.fixture()
def base_rows(monkeypatch):
    """The base-case tuples of the recursion, counted by route and member:
    "array" for those of a frontier that takes the family's array pass,
    "product_integral" for each one that product_integral answers alone."""
    rows = Counter()
    array, scalar = correlate_module.array_integrals, correlate_module.product_integral

    def array_spy(family, shifts, lattice):
        values = array(family, shifts, lattice)
        if values is not None:
            rows["array"] += len(family) * len(shifts)
        return values

    def scalar_spy(functions, shifts, lattice=None):
        rows["product_integral"] += 1
        return scalar(functions, shifts, lattice)

    monkeypatch.setattr(correlate_module, "array_integrals", array_spy)
    monkeypatch.setattr(correlate_module, "product_integral", scalar_spy)
    return rows


@pytest.fixture(scope="session")
def flat2():
    return flat_schedule(2)


@pytest.fixture(scope="session")
def flat3():
    return flat_schedule(3)


@pytest.fixture(scope="session")
def small_staircase():
    return staircase34_schedule(staircase_stages=(2, 3), base=4, r_cap=16)


@pytest.fixture(scope="session")
def small_asym():
    return asym49_schedule(r_cap=16)


@pytest.fixture(scope="session")
def small_thm44():
    return thm44_schedule(s_values=(2,), q_max=1, k_max=1, r_cap=6)


@pytest.fixture(scope="session")
def sym_flat3():
    return symmetrize(flat_schedule(3))
