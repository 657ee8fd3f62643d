"""Self-test of the correctness gate.

    python3 perfbench/selftest.py

For every workload's op at the reference seed it runs the op for real,
then replays it with the report altered on the way out:

* a bounded value moved by 0.9 of the two bounds combined must pass;
* the same value moved by 1.1 of them must fail;
* an op that raises must fail;

and the four outcomes must give ``fail_frac`` = 1/2.  Fields without a
bound (spectral affinities) are moved by 0.9 and 1.1 of ``APPROX_TOL``.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys

import check
from record_reference import REFERENCE_SEED
from worker import Runner, import_program, reference_view
from workloads import WORKLOADS


def moved(report: dict, share: float) -> dict:
    """A copy of the report with its first checked value moved by
    ``share`` of the tolerance the gate allows it."""
    out = copy.deepcopy(report)
    res = out["result"]
    kind = out["experiment"]
    if kind == "weak-limit":
        item = res["items"][0]
        item["residual"] += share * 2 * item["bound"]
    elif kind == "triple-asymmetry":
        row = res["forward"][0]["rows"][0]
        row["ratio"] += share * 2 * row["bound"]
    elif kind == "disjointness":
        res["items"][0]["affinity"] += share * check.APPROX_TOL
    else:
        raise ValueError(f"no checked value to move in a {kind!r} report")
    return out


def main() -> int:
    rank1flow = import_program()
    from rank1flow.experiments import run_experiment

    def altered(share):
        return lambda kind, spec: moved(run_experiment(kind, spec), share)

    def raising(kind, spec):
        raise RuntimeError("injected failure")

    bad = 0
    for name, workload in WORKLOADS.items():
        op = workload.op(REFERENCE_SEED, rank1flow)
        ref = reference_view(name, REFERENCE_SEED, op)
        outcomes = {}
        for label, fn in (
            ("as run", run_experiment),
            ("moved by 0.9 of its bound", altered(0.9)),
            ("moved by 1.1 of its bound", altered(1.1)),
            ("raising", raising),
        ):
            outcomes[label] = Runner(fn, op, ref).attempt()["problems"]
        want = {"as run": False, "moved by 0.9 of its bound": False, "moved by 1.1 of its bound": True, "raising": True}
        frac = check.fail_frac(list(outcomes.values()))
        for label, problems in outcomes.items():
            ok = bool(problems) == want[label]
            bad += not ok
            verdict = "fails" if problems else "passes"
            print(f"{'ok' if ok else 'WRONG'}: {name} op {label} {verdict}" + (f" ({problems[0]})" if problems else ""))
        ok = frac == 0.5
        bad += not ok
        print(f"{'ok' if ok else 'WRONG'}: {name} fail_frac over the four = {frac}")
    print("selftest:", "PASS" if bad == 0 else f"FAIL ({bad} wrong)")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
