"""Measure a baseline and check that the benchmark is steady on it.

    python3 perfbench/baseline.py [--first-seed 0] [--out FILE]

For every workload it makes ten untraced runs with consecutive seeds
from ``--first-seed`` and one traced run at the first seed, each
through ``run.py`` exactly as ``BENCHMARK.json`` states it, and prints
for every end-to-end metric the median, the quartiles and the spread
(distance between the quartiles as a share of the median) next to a
third of the metric's bound.  The numbers, the traced layer breakdown
and the layer predictions below are written to ``--out`` (default
``perfbench/baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10

# Which end-to-end metric each layer metric should move, and where; written
# before any optimization is measured against this benchmark.
PREDICTIONS = [
    {
        "layer": ["schedule.overlap_s", "schedule.overlap_calls", "schedule.overlap_copy_pairs"],
        "moves": ["op_s_p50", "results_per_s"],
        "on": ["stair-sweep", "thm44-rigidity"],
        "unchanged_on": ["asym49-triple"],
    },
    {"layer": ["schedule.build_s", "schedule.height_bits"], "moves": ["op_s_p50"], "on": ["thm44-rigidity"]},
    {
        "layer": ["schedule.overlap_float_calls"],
        "moves": ["op_s_p50"],
        "on": ["asym49-spectrum"],
        "note": "equals schedule.overlap_calls on asym49-spectrum (float dt) and is 0 elsewhere; an exact dt takes it to 0",
    },
    {
        "layer": ["stepfun.base_s", "stepfun.base_calls"],
        "moves": ["op_s_p50"],
        "on": ["asym49-triple"],
        "note": "by a few per cent at most: the base case is a small share of every workload",
    },
    {
        "layer": ["correlate.self_s", "correlate.at_calls", "correlate.memo_misses"],
        "moves": ["op_s_p50"],
        "on": ["asym49-triple", "stair-sweep"],
    },
    {
        "layer": ["schedule.overlap_hit_ratio", "correlate.memo_misses"],
        "moves": ["results_per_s"],
        "on": ["stair-sweep"],
        "unchanged_on": ["thm44-rigidity"],
        "note": "a memo or cache change",
    },
    {
        "layer": ["spectral.bochner_s", "spectral.bochner_terms", "spectral.affinity_s"],
        "moves": ["op_s_p50"],
        "on": ["asym49-spectrum"],
        "note": "by at most their share of the op",
    },
    {"layer": ["experiments.self_s"], "moves": ["op_s_p50"], "on": list(WORKLOADS), "note": "a floor under every op"},
]


def run(command: list, workload: str, seed: int, seconds: int, trace: int) -> tuple:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if argv[0] == "python3":
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    doc = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    steady = True
    for name in WORKLOADS:
        results = []
        for seed in seeds:
            res, lines = run(bench["command"], name, seed, bench["run_seconds"], 0)
            results.append(res)
            env = [l for l in lines if l.startswith("# ")]
            print(f"{name} seed {seed}: " + ", ".join(f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        traced, lines = run(bench["command"], name, seeds[0], bench["run_seconds"], 1)
        entry = {"environment": env[:2], "end_to_end": {}, "layers": traced["metrics"], "layer_notes": lines}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            s = spread(values)
            s.update(unit=results[0]["metrics"][metric]["unit"], bound=bounds[metric], values=values)
            entry["end_to_end"][metric] = s
            ok = metric == "setup_s" or s["spread"] < bounds[metric] / 3
            steady = steady and ok
            print(f"{name} {metric}: median {s['median']:.4g} {s['unit']}, spread {s['spread']:.4f} "
                  f"(a third of the bound: {bounds[metric] / 3:.4f}){'' if ok else '  NOT STEADY'}")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry["end_to_end"]["fail_frac"] = {"value": failed / attempted, "failed": failed, "attempted": attempted}
        print(f"{name} fail_frac: {failed / attempted} ({failed} of {attempted} ops)", flush=True)
        doc["workloads"][name] = entry
    doc["predictions"] = PREDICTIONS
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print("steady" if steady else "NOT steady: some spread is a third of its bound or more")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
