"""The measured process: one thread, a closed loop of ops.

    python3 perfbench/worker.py --workload NAME --seed N [--setup-only]
                                [--seconds S] [--trace 0|1]

It imports ``rank1flow`` from the checkout's ``src`` directory, builds the
workload's op from the seed and prints ``ready``; that is the end of
set-up.  With ``--setup-only`` it exits there.  Otherwise it runs one
untimed warm-up op, then ops back to back for S seconds (the next op
starts when the previous one returns), checks every report, and prints
one JSON line with the per-op records.  An op's time is the sum of its
calls' times, each normalized by the calibration passes around it.  With
``--trace 1`` every other op runs under the layer tracer, the rest
untraced, so the two can be compared within the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import check
import speed
from tracing import SPAN_NAMES, Tracer
from workloads import WORKLOADS, certified_results

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
MAX_PROBLEMS = 5


def import_program():
    """``rank1flow`` from this checkout's sources, never an installed copy."""
    package = SRC / "rank1flow"
    if not (package / "__init__.py").is_file():
        sys.exit(f"worker: no rank1flow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rank1flow

    if Path(rank1flow.__file__).resolve().parent != package.resolve():
        sys.exit(f"worker: imported rank1flow from {rank1flow.__file__}, not from {package}")
    return rank1flow


def reference_view(name: str, seed: int, op: list):
    """The reference view of this op, or None when the seed has none."""
    doc = json.loads(REFERENCE.read_text())
    if seed != doc["seed"]:
        return None
    entry = doc["workloads"][name]
    if entry["op"] != json.loads(json.dumps(op)):
        sys.exit(f"worker: {REFERENCE.name} was recorded for other {name} specs; record it again")
    return entry["view"]


class Runner:
    """Runs and checks one workload's op.  Each ``run_experiment`` call
    is timed on its own and followed by a calibration pass, so every call
    is normalized by the passes right around it (see ``speed.py``)."""

    def __init__(self, run_experiment, op: list, ref):
        self.run_experiment = run_experiment
        self.op = op
        self.ref = ref
        self.first_view = None
        self.last_pass = speed.calibration_pass()

    def _call(self, kind: str, spec: dict, rec: dict, tracer: Tracer | None):
        if tracer is not None:
            tracer.install()
        start = perf_counter()
        try:
            if tracer is None:
                report = self.run_experiment(kind, spec)
            else:
                report = tracer.run_op(lambda: self.run_experiment(kind, spec))
        finally:
            wall = perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
            after = speed.calibration_pass()
            k = speed.factor(self.last_pass, after)
            self.last_pass = after
            rec["wall"] += wall
            rec["norm"] += wall * k
        if tracer is not None:
            rec["calls"].append((tracer.finish_op(), k))
        return report

    def attempt(self, tracer: Tracer | None = None) -> dict:
        """Run the op once and check it."""
        rec = {"wall": 0.0, "norm": 0.0, "traced": tracer is not None, "calls": []}
        gc.collect()
        try:
            reports = [self._call(kind, spec, rec, tracer) for kind, spec in self.op]
        except Exception as exc:  # a failed op is counted, the loop goes on
            rec.update(results=0, problems=[f"raised {type(exc).__name__}: {exc}"], failed=True, calls=[])
            return rec
        view = check.op_view(reports)
        problems = check.op_problems(view, self.ref)
        if self.first_view is None:
            self.first_view = view
        elif view != self.first_view:
            problems.append("report differs from an earlier run of the op")
        results = 0
        if not problems:
            results = sum(certified_results(kind, spec, r) for (kind, spec), r in zip(self.op, reports))
        rec.update(results=results, problems=problems[:MAX_PROBLEMS], failed=bool(problems))
        return rec


def measure(runner: Runner, seconds: float, traced: bool) -> dict:
    warmup = runner.attempt()
    del warmup["calls"]
    tracer = Tracer() if traced else None
    ops = []
    layers = {"self_s": dict.fromkeys(SPAN_NAMES, 0.0), "counts": {}, "height_bits": 0, "op_s": 0.0, "ops": 0, "sum_gap_s": 0.0}
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline:
        rec = runner.attempt(tracer if traced and i % 2 == 0 else None)
        calls = rec.pop("calls")
        layers["ops"] += bool(calls)
        for span, k in calls:
            layers["op_s"] += span["op_s"] * k
            layers["sum_gap_s"] = max(layers["sum_gap_s"], abs(sum(span["self_s"].values()) - span["op_s"]))
            for name, v in span["self_s"].items():
                layers["self_s"][name] += v * k
            for name, v in span["counts"].items():
                layers["counts"][name] = layers["counts"].get(name, 0) + v
            layers["height_bits"] = max(layers["height_bits"], span["height_bits"])
        ops.append(rec)
        i += 1
    out = {"warmup": warmup, "ops": ops}
    if traced:
        out["layers"] = layers
        out["missing_boundaries"] = tracer.missing
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    rank1flow = import_program()
    from rank1flow.experiments import run_experiment

    op = WORKLOADS[args.workload].op(args.seed, rank1flow)
    ref = reference_view(args.workload, args.seed, op)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import numpy

    result = measure(Runner(run_experiment, op, ref), args.seconds, bool(args.trace))
    result.update(
        reference_checked=ref is not None,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=numpy.__version__,
        python=sys.version.split()[0],
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
