"""The benchmark's per-layer trace (``perfbench/tracing.py``) wraps engine
boundaries by name; a boundary it cannot find reads 0 in every trace.
Run it against this package so that a refactor cannot blind it silently."""

import runpy
from pathlib import Path

from rank1flow.correlate import Correlator
from rank1flow.experiments import run_experiment

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# name -> (experiment kind, spec); the thm44 probe runs the engine on
# Q(sqrt 2) lattice pairs
SPECS = {
    "weak-limit": (
        "weak-limit",
        {
            "schedule": {"kind": "flat", "params": {"r": 3}},
            "times": ["1/2", "-5/4"],
            "target": {"alpha": 0},
            "family_size": 1,
        },
    ),
    "weak-limit-thm44": (
        "weak-limit",
        {
            "schedule": {"kind": "thm44", "params": {"s_values": [2], "q_max": 1, "k_max": 1, "r_cap": 6}},
            "times": ["1/2", "-3/2+1*sqrt2"],
            "target": {"alpha": 0},
            "family_size": 1,
        },
    ),
    "triple-asymmetry": (
        "triple-asymmetry",
        {
            "schedule": {"kind": "asym49", "params": {}},
            "stage_count": 1,
            "forward_sets": 1,
            "backward_period_max": 2,
        },
    ),
}


def test_trace_finds_every_engine_boundary():
    at = Correlator.at
    tracer = runpy.run_path(str(TRACING))["Tracer"]()  # run_path writes no bytecode cache
    tracer.install()
    try:
        traces = {}
        for name, (kind, spec) in SPECS.items():
            tracer.run_op(lambda: run_experiment(kind, spec))
            traces[name] = tracer.finish_op()
    finally:
        tracer.uninstall()
    # the 2-point base case is product_integral too; the tracer still
    # names the deleted cross_correlation
    assert tracer.missing == ["rank1flow.correlate.cross_correlation"]
    assert Correlator.at is at
    for name, trace in traces.items():
        assert trace["counts"]["at_calls"] > 0, name
        assert trace["counts"]["base_calls"] > 0, name
        assert trace["self_s"]["stepfun.base"] > 0, name
    assert traces["weak-limit"]["counts"]["overlap_calls"] > 0
    assert traces["weak-limit-thm44"]["counts"]["overlap_sqrt2_calls"] > 0
