"""Record the reference views that the correctness gate compares against.

    python3 perfbench/record_reference.py

Runs every workload's op once, at the reference seed, and writes its
checked fields to ``reference.json``.  Record it on a commit
whose outputs are known good; the gate then holds later commits to it.
"""

from __future__ import annotations

import json
import sys

import check
from worker import REFERENCE, import_program
from workloads import WORKLOADS

REFERENCE_SEED = 0


def main() -> int:
    rank1flow = import_program()
    from rank1flow.experiments import run_experiment

    doc = {"seed": REFERENCE_SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        op = workload.op(REFERENCE_SEED, rank1flow)
        view = check.op_view([run_experiment(kind, spec) for kind, spec in op])
        problems = check.structural_problems(view)
        if problems:
            sys.exit(f"{name}: refusing to record a malformed report: {problems}")
        doc["workloads"][name] = {"op": op, "view": view}
        print(f"{name}: recorded", flush=True)
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
