"""rank1flow benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Run from the root of a checkout; the program is imported from ``src``.
Set-up is measured over several worker starts (interpreter start,
``import rank1flow``, spec generation); one of them goes on to run the
ops.  Human-readable lines come first; the last line of standard output
is the JSON result.  With ``--trace 0`` it carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics.  Every time is in
nominal seconds (see ``speed.py``); raw wall seconds are printed above.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import check
import speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 7
READY_TIMEOUT_S = 60.0
RUN_GRACE_S = 120.0
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile

WORKER_ENV = {
    # one thread: NumPy's BLAS would otherwise spread the spectral transform
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def environment() -> dict:
    commit = ""
    if (ROOT / ".git").exists():  # never ask a repository that encloses the checkout
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"commit": commit or "unknown (not a git checkout)", "nproc": len(os.sched_getaffinity(0))}


class Worker:
    """One worker process, timed from spawn to its ``ready`` line."""

    def __init__(self, args: list):
        env = {**os.environ, **WORKER_ENV}
        # set-up is measured as after an install: bytecode compiled once, then reused
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.pass_before = speed.calibration_pass()
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), *args], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        )
        try:
            self._wait_ready()
        except BaseException:
            self.kill()
            raise
        self.setup_wall = perf_counter() - start

    def _wait_ready(self) -> None:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(READY_TIMEOUT_S):
                raise BenchError(f"worker not ready within {READY_TIMEOUT_S:.0f} s")
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            self.proc.wait(timeout=READY_TIMEOUT_S)
            raise BenchError(f"worker exited with code {self.proc.returncode} before it was ready")

    def finish(self, timeout: float) -> str:
        """The rest of the worker's output, once it has exited cleanly."""
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return out

    def result(self, timeout: float) -> dict:
        lines = self.finish(timeout).strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        return json.loads(lines[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def tail(values: list) -> tuple:
    """The highest percentile with TAIL_BEYOND samples above it:
    (value, percentile, samples)."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    k = n - TAIL_BEYOND  # s[k - 1] has exactly TAIL_BEYOND samples above it
    return s[k - 1], 100.0 * k / n, n


def run_once(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Set-up samples plus one measured worker; the raw material of a run."""
    common = ["--workload", workload, "--seed", str(seed)]
    load_start = os.getloadavg()
    setups, setup_walls = [], []
    for _ in range(SETUP_SAMPLES):
        w = Worker(common + ["--setup-only"])
        w.finish(READY_TIMEOUT_S)
        setup_walls.append(w.setup_wall)
        setups.append(w.setup_wall * speed.factor(w.pass_before, speed.calibration_pass()))
    w = Worker(common + ["--seconds", str(seconds), "--trace", str(int(traced))])
    try:
        out = w.result(seconds + RUN_GRACE_S)
    finally:
        w.kill()
    out.update(setups=setups, setup_walls=setup_walls, load=[load_start[0], os.getloadavg()[0]])
    return out


def end_to_end(raw: dict) -> tuple:
    """The end-to-end metrics and notes for the human-readable lines."""
    ops = raw["ops"]
    norm = [r["norm"] for r in ops]
    value, pct, n = tail(norm)
    metrics = {
        "op_s_p50": {"value": statistics.median(norm), "unit": "s"},
        "op_s_tail": {"value": value, "unit": "s"},
        "results_per_s": {"value": sum(r["results"] for r in ops) / sum(norm), "unit": "1/s"},
        "setup_s": {"value": statistics.median(raw["setups"]), "unit": "s"},
        "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
    }
    notes = {
        "op_s_p50": f"raw wall median {statistics.median(r['wall'] for r in ops):.4f} s",
        "op_s_tail": f"p{pct:.1f} of {n} ops" + (" (fewer than 11 ops: the maximum)" if n <= TAIL_BEYOND else ""),
        "setup_s": f"median of {len(raw['setups'])} starts; raw wall median {statistics.median(raw['setup_walls']):.4f} s",
    }
    return metrics, notes


PER_LAYER_UNITS = {
    "schedule.build_s": "s",
    "schedule.stages_built": "count",
    "schedule.stage_calls": "count",
    "schedule.height_bits": "bits",
    "schedule.overlap_s": "s",
    "schedule.overlap_calls": "count",
    "schedule.overlap_deltas": "count",
    "schedule.overlap_copy_pairs": "count",
    "schedule.overlap_hit_ratio": "ratio",
    "schedule.overlap_float_calls": "count",
    "stepfun.base_s": "s",
    "stepfun.base_calls": "count",
    "correlate.self_s": "s",
    "correlate.at_calls": "count",
    "correlate.memo_misses": "count",
    "spectral.bochner_s": "s",
    "spectral.bochner_terms": "count",
    "spectral.affinity_s": "s",
    "experiments.self_s": "s",
    "trace.op_s": "s",
    "trace.overhead_frac": "ratio",
}


def per_layer(raw: dict) -> tuple:
    """Per-op means over the traced ops: self seconds and counts."""
    lay = raw["layers"]
    n = lay["ops"]
    if n == 0:
        raise BenchError("no traced op completed")
    s = {name: v / n for name, v in lay["self_s"].items()}
    c = {name: v / n for name, v in lay["counts"].items()}
    traced = [r["norm"] for r in raw["ops"] if r["traced"]]
    plain = [r["norm"] for r in raw["ops"] if not r["traced"]]
    if not plain:
        raise BenchError("no untraced op to compare the traced ones with")
    overlaps = c.get("overlaps_calls", 0)
    values = {
        "schedule.build_s": s["schedule.build"],
        "schedule.stages_built": c.get("stages_built", 0),
        "schedule.stage_calls": c.get("stage_calls", 0),
        "schedule.height_bits": lay["height_bits"],
        "schedule.overlap_s": s["schedule.overlap"],
        "schedule.overlap_calls": c.get("overlap_calls", 0),
        "schedule.overlap_deltas": c.get("overlap_deltas", 0),
        "schedule.overlap_copy_pairs": c.get("overlap_copy_pairs", 0),
        "schedule.overlap_hit_ratio": 1 - c.get("overlap_calls", 0) / overlaps if overlaps else 0.0,
        "schedule.overlap_float_calls": c.get("overlap_float_calls", 0),
        "stepfun.base_s": s["stepfun.base"],
        "stepfun.base_calls": c.get("base_calls", 0),
        "correlate.self_s": s["correlate.at"],
        "correlate.at_calls": c.get("at_calls", 0),
        "correlate.memo_misses": overlaps + c.get("base_calls", 0),
        "spectral.bochner_s": s["spectral.bochner"],
        "spectral.bochner_terms": c.get("bochner_terms", 0),
        "spectral.affinity_s": s["spectral.affinity"],
        "experiments.self_s": s["experiments"],
        "trace.op_s": lay["op_s"] / n,
        "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1,
    }
    metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
    notes = {
        "trace.op_s": f"mean of {n} traced ops; layer self times sum to it within {lay['sum_gap_s']:.1e} s per op",
        "trace.overhead_frac": f"median of {len(traced)} traced / {len(plain)} untraced ops",
    }
    return metrics, notes


def summarize(workload: str, raw: dict, env: dict, traced: bool) -> tuple:
    """Result object for the last line, plus the human-readable lines."""
    records = [raw["warmup"], *raw["ops"]]
    failed = sum(1 for r in records if r["failed"])
    frac = check.fail_frac([r["problems"] for r in records])
    metrics, notes = per_layer(raw) if traced else end_to_end(raw)
    lines = [
        f"# {workload}: commit {env['commit']}, python {raw['python']}, numpy {raw['numpy']}, nproc {env['nproc']}",
        f"# load average {raw['load'][0]:.2f} at start, {raw['load'][1]:.2f} at end"
        + (" -- LOADED: above nproc, treat this run with care" if max(raw["load"]) > env["nproc"] else ""),
        f"# outputs checked against the {'recorded reference' if raw['reference_checked'] else 'structural checks (no reference for this seed)'}",
    ]
    if raw.get("missing_boundaries"):
        lines.append(f"# trace: boundaries not found, their metrics read 0: {raw['missing_boundaries']}")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{workload} {name} = {m['value']:.6g} {m['unit']}{note}")
    lines.append(f"{workload} fail_frac = {frac:.6g} ({failed} of {len(records)} ops)")
    for r in records:
        for p in r["problems"]:
            lines.append(f"# FAILED op: {p}")
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rank1flow" / "__init__.py").is_file():
        print(f"run.py: no rank1flow sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            raw = run_once(name, args.seed, args.seconds, bool(args.trace))
            results[name], lines = summarize(name, raw, env, bool(args.trace))
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
