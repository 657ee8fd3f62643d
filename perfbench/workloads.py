"""The four benchmark workloads.

A workload turns the run's seed into its *op*: a list of ``(kind, spec)``
calls to ``rank1flow.experiments.run_experiment``, the function behind
the ``rank1`` command line.  A run repeats the op; every call resolves
its schedule from the spec, so no engine state carries over between ops.

An op does the same work whatever the seed: the seed chooses the test
functions, never the times or stages evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

STAIRCASE = {"kind": "staircase34", "params": {"staircase_stages": [2, 4, 6], "base": 4, "r_cap": 4096}}
# criterion 3's sweep grid: c = 1 + 9 i / 29 on [1, 10]
SWEEP_GRID = [Fraction(1) + Fraction(9 * i, 29) for i in range(30)]
SWEEP_TIMES = (SWEEP_GRID[7], SWEEP_GRID[22])

THM44 = {"kind": "thm44", "params": {"s_values": [2], "q_max": 2, "k_max": 1, "r_cap": 256}}
ASYM49 = {"kind": "asym49", "params": {}}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    op: Callable  # (seed, rank1flow module) -> list of (kind, spec) calls


def _stair_sweep(seed: int, rank1flow) -> list:
    """<U(-c h_4) f, g> at two of criterion 3's grid times, the mirrored
    pair (c_7, c_22), for a seeded mean-zero pair family.

    The times are fixed: the cost of an op depends on c (the 15 mirrored
    pairs of the grid differ by up to 2x), and cycling through unequal
    pairs made the tail percentile of a run depend on where the run cut
    the cycle."""
    h4 = rank1flow.named_schedule(STAIRCASE["kind"], **STAIRCASE["params"]).height(4)
    spec = {
        "schedule": STAIRCASE,
        "times": [str(-c * h4) for c in SWEEP_TIMES],
        "target": {"alpha": 0},
        "mean_zero": True,
        "family_size": 2,
        "seed": seed,
    }
    return [("weak-limit", spec)]


def _thm44_rigidity(seed: int, rank1flow) -> list:
    """Criterion 4's two probes, each on a freshly built schedule."""
    family = {"stage": 2, "levels": 5, "family_size": 2, "seed": seed}
    l2 = {
        "schedule": THM44,
        "times": {"kind": "heights", "stages": [9], "d": "-1"},
        "target": {"alpha": 0.5, "beta": 0.5, "s": "2"},
        **family,
    }
    l1 = {
        "schedule": THM44,
        "times": {"kind": "heights", "stages": [8], "d": "-1"},
        "target": {"beta": 1, "s": "0+2*sqrt2"},
        **family,
    }
    return [("weak-limit", l2), ("weak-limit", l1)]


def _asym49_triple(seed: int, rank1flow) -> list:
    spec = {"schedule": ASYM49, "stage_count": 4, "forward_sets": 3, "seed": seed}
    return [("triple-asymmetry", spec)]


def _asym49_spectrum(seed: int, rank1flow) -> list:
    spec = {
        "schedule": ASYM49,
        "dt": 0.05,
        "t_max": 16,
        "grid_size": 1601,
        "dilations": [2, 3],
        "seed": seed,
    }
    return [("disjointness", spec)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "stair-sweep",
            "heavy rational path: overlap enumeration and the 2-point memo recursion, "
            "half of the overlap lookups hit the schedule cache",
            _stair_sweep,
        ),
        Workload(
            "thm44-rigidity",
            "Q(sqrt 2) path: overlap enumeration in Sqrt2 arithmetic and a factorially "
            "growing stage build, cold caches",
            _thm44_rigidity,
        ),
        Workload(
            "asym49-triple",
            "m-tuple enumeration of the 3-point correlator; overlap_pairs is never "
            "called, so 2-point changes should not move it",
            _asym49_triple,
        ),
        Workload(
            "asym49-spectrum",
            "dense sweep of 641 nearby float times through the float-shift overlap "
            "branch, no cache hits, plus the spectral transform",
            _asym49_spectrum,
        ),
    )
}


def certified_results(kind: str, spec: dict, report: dict) -> int:
    """Values shipped with an error bound by one call: one per (time, test
    pair) of a 2-point probe, one per triple ratio, one per sample of an
    autocorrelation curve."""
    result = report["result"]
    if kind == "weak-limit":
        return len(result["items"]) * int(spec.get("family_size", 3))
    if kind == "triple-asymmetry":
        return sum(len(it["rows"]) for it in result["forward"]) + len(result["backward"])
    if kind == "disjointness":
        return 2 * int(round(float(spec["t_max"]) / float(spec["dt"]))) + 1
    raise ValueError(f"no result count for experiment kind {kind!r}")
