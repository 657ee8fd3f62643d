"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL verdict line.  Criterion 3 contains
a deliberate literal check that is expected to stay red: on the base-4
staircase schedule the decade split d = 9/10 is incommensurable with the
dyadic offset lattice, so the correlation value decays to 0 instead of
(1/10) <f, g> and the residual plateaus above the threshold.  The
companion base-consistent split d = 3/4 converges as predicted.  See the
test body for the measured numbers.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import rank1flow
from rank1flow import (
    SQRT2,
    Correlator,
    WeakLimitTarget,
    asym49_schedule,
    correlate,
    flat_schedule,
    inner_product,
    oracle_correlate,
    random_step_function,
    staircase34_schedule,
    symmetrize,
    thm44_schedule,
    weak_limit_probe,
)
from rank1flow.cli import main
from rank1flow.experiments import run_experiment


def verdict(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# -- 1: exact geometry audit ------------------------------------------------


def test_criterion_1_geometry_audit():
    started = time.monotonic()
    schedules = {
        "flat2": {"kind": "flat", "params": {"r": 2}},
        "flat3": {"kind": "flat", "params": {"r": 3}},
        "staircase34": {"kind": "staircase34", "params": {}},
        "asym49": {"kind": "asym49", "params": {}},
        "thm44": {"kind": "thm44", "params": {}},
    }
    failures = []
    for name, doc in schedules.items():
        report = run_experiment("stage-audit", {"schedule": doc, "depth": 12})
        if not report["passed"]:
            failures.append(name)
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 5.0
    verdict(1, ok, f"stage invariants exact to depth 12 on {len(schedules)} schedules in {elapsed:.2f}s" + (f"; failures: {failures}" if failures else ""))


# -- 2: engine vs dense-grid oracle -----------------------------------------


def test_criterion_2_oracle_equivalence():
    started = time.monotonic()
    schedules = [
        flat_schedule(2),
        flat_schedule(3),
        staircase34_schedule(staircase_stages=(2, 3), base=4, r_cap=16),
        asym49_schedule(r_cap=16),
        symmetrize(flat_schedule(3)),
    ]
    rng = random.Random(0)
    worst = 0.0
    cases = 0
    for sched in schedules:
        h = sched.height(1)
        for _ in range(100):
            f = random_step_function(1, h, 4, rng)
            g = random_step_function(1, h, 4, rng)
            t = Fraction(rng.randrange(-24, 25), 16)
            res = correlate(sched, f, g, t)
            ref = oracle_correlate(sched, f, g, t, stage=res.stage_used)
            gap = abs(res.value - ref)
            assert gap <= res.error_bound + 1e-9
            worst = max(worst, gap)
            cases += 1
    elapsed = time.monotonic() - started
    ok = elapsed < 60.0
    verdict(2, ok, f"{cases} random (f,g,t) agree with the oracle (worst gap {worst:.2e}) in {elapsed:.1f}s")


# -- 3: staircase weak limits (contains the expected-red literal check) -----


def test_criterion_3_staircase_weak_limits():
    started = time.monotonic()
    sched = staircase34_schedule(staircase_stages=(2, 4, 6), base=4, r_cap=4096)
    rng = random.Random(0)
    h1 = sched.height(1)
    f = random_step_function(1, h1, 4, rng, mean_zero=True)
    g = random_step_function(1, h1, 4, rng, mean_zero=True)
    fam = [(f, f), (f, g)]
    norm_sq = inner_product(sched, f, f).real
    threshold = 0.05 * norm_sq

    # (3-2): sup over 30 grid points c in [1, 10] of |<U(-c h_4) f, g>|
    corr = Correlator(sched, [(f, g)])
    sup = 0.0
    h4 = sched.height(4)
    for i in range(30):
        c = Fraction(1) + Fraction(9 * i, 29)
        sup = max(sup, abs(corr.at([-c * h4])[0][0].value))

    # base-consistent companion: d = 3/4 -> (1/4) I
    quarter = weak_limit_probe(
        sched, [-Fraction(3, 4) * sched.height(n) for n in (2, 4)], WeakLimitTarget(alpha=0.25), fam
    )

    # the literal decade split: d = 9/10 -> (1/10) I is claimed, but 9/10
    # of a height is never realizable on the dyadic offset lattice of a
    # base-4 tower, so the value decays to 0 and the residual sticks at
    # |0.1 <f, f>| ~ 0.056 > 0.05 ||f||^2 = 0.028: expected red
    decade = weak_limit_probe(
        sched, [-Fraction(9, 10) * sched.height(n) for n in (2, 4)], WeakLimitTarget(alpha=0.1), fam
    )

    elapsed = time.monotonic() - started
    ok = (
        sup < 0.05
        and quarter.final_residual < threshold
        and decade.final_residual < threshold
        and elapsed < 300.0
    )
    verdict(
        3,
        ok,
        f"sweep sup {sup:.4f} (<0.05), d=3/4 residual {quarter.final_residual:.4f} "
        f"(<{threshold:.4f}), d=9/10 residual {decade.final_residual:.4f} "
        f"(<{threshold:.4f} required; expected red, see the decisions ledger), {elapsed:.1f}s",
    )


def test_decade_split_on_a_base_100_staircase():
    """Criterion 3's decade split, d = 9/10 -> (1/10) I, on base-100
    staircases, whose offsets meet the decade shift: at r_cap 400 and 900
    the residual plus its error bound is below the threshold at t =
    -(9/10) h_n for n = 2 and 4, and the r_cap 1,600 residual is below the
    r_cap 100 one.  Criterion 3's own family, target and threshold."""
    finals = {}
    for r_cap in (100, 400, 900, 1600):
        sched = staircase34_schedule(staircase_stages=(2, 4, 6), base=100, r_cap=r_cap)
        rng = random.Random(0)
        h1 = sched.height(1)
        f = random_step_function(1, h1, 4, rng, mean_zero=True)
        g = random_step_function(1, h1, 4, rng, mean_zero=True)
        threshold = 0.05 * inner_product(sched, f, f).real
        times = [-Fraction(9, 10) * sched.height(n) for n in (2, 4)]
        decade = weak_limit_probe(sched, times, WeakLimitTarget(alpha=0.1), [(f, f), (f, g)])
        if r_cap in (400, 900):
            assert all(r + b < threshold for r, b in zip(decade.residuals, decade.bounds)), (r_cap, decade)
        finals[r_cap] = decade.final_residual
    assert finals[1600] < finals[100]


# -- 4: rigidity along the two spacer classes -------------------------------


def test_criterion_4_rigidity_premises():
    started = time.monotonic()
    sched = thm44_schedule(s_values=(2,), q_max=2, k_max=1)
    sched.stage(10)
    rng = random.Random(0)
    h2 = sched.height(2)
    f = random_step_function(2, h2, 5, rng)
    g = random_step_function(2, h2, 5, rng)
    fam = [(f, g), (f, f)]

    l2_stage = [n for n in sched.meta["class_stages"]["L2[s=2,q=2]"] if n <= 9][-1]
    l2 = weak_limit_probe(sched, [-sched.height(l2_stage)], WeakLimitTarget(alpha=0.5, beta=0.5, s=2), fam)

    l1_stage = [n for n in sched.meta["class_stages"]["L1[s=2,q=2]"] if n <= 9][-1]
    l1 = weak_limit_probe(sched, [-sched.height(l1_stage)], WeakLimitTarget(beta=1.0, s=SQRT2 * 2), fam)

    elapsed = time.monotonic() - started
    ok = l2.final_residual < 0.05 and l1.final_residual < 0.05 and elapsed < 300.0
    verdict(
        4,
        ok,
        f"split-class residual {l2.final_residual:.2e} at stage {l2_stage}, "
        f"constant-class residual {l1.final_residual:.2e} at stage {l1_stage} (<0.05), {elapsed:.1f}s",
    )


# -- 5: paired-stage product limits -----------------------------------------


def test_criterion_5_paired_stage_limits():
    started = time.monotonic()
    report = run_experiment(
        "fock-claims",
        {
            "schedule": {"kind": "thm44", "params": {"s_values": [2], "q_max": 2, "k_max": 1}},
            "class_label": "M[l0=1;2]",
            "build_to": 10,
            "shifts": ["2"],
            "l0": 1,
            "stage": 2,
            "levels": 5,
            "seed": 0,
            "family_size": 1,
            "threshold": 0.1,
            "off_scale": "3",
            "off_scale_threshold": 0.05,
        },
    )
    res = report["result"]
    elapsed = time.monotonic() - started
    ok = report["passed"]
    verdict(
        5,
        ok,
        f"max per-factor residual {res['final_max_factor_residual']:.2e} (<0.1), "
        f"off-scale b=3 probe {res['off_scale']['values'][-1]:.2e} (<0.05), {elapsed:.1f}s",
    )


# -- 6: forward/backward triple correlations --------------------------------


def test_criterion_6_triple_asymmetry():
    started = time.monotonic()
    report = run_experiment(
        "triple-asymmetry",
        {
            "schedule": {"kind": "asym49", "params": {}},
            "stage_count": 4,
            "forward_sets": 5,
            "forward_threshold": 0.19,
            "backward_threshold": 0.1,
            "seed": 0,
        },
    )
    res = report["result"]
    elapsed = time.monotonic() - started
    ok = report["passed"] and elapsed < 600.0
    verdict(
        6,
        ok,
        f"forward triples >= {res['forward_liminf_estimate']:.3f} mu(A) on "
        f"{len(res['forward'])} sets (>=0.19), backward witness {res['backward_best']['set']} "
        f"at {res['backward_best']['final_ratio']:.3f} (<=0.1), {elapsed:.1f}s",
    )


# -- 7: reflection symmetry vs genuine asymmetry ----------------------------


def test_criterion_7_reflection_check():
    started = time.monotonic()
    sym_report = run_experiment(
        "reflection-check",
        {
            "schedule": {"kind": "staircase34", "params": {"staircase_stages": [2, 3], "base": 4, "r_cap": 16}},
            "symmetrize": True,
            "cases": 50,
            "seed": 0,
        },
    )
    asym_report = run_experiment(
        "reflection-check",
        {"schedule": {"kind": "asym49", "params": {}}, "cases": 50, "seed": 0},
    )
    elapsed = time.monotonic() - started
    sym_ok = sym_report["passed"]
    gross = asym_report["result"]["gross_violations"]
    ok = sym_ok and gross >= 1
    verdict(
        7,
        ok,
        f"symmetrized schedule: {sym_report['result']['violations']}/50 violations; "
        f"asymmetric schedule: {gross}/50 cases break the identity by >10x the bound, {elapsed:.1f}s",
    )


# -- 8: spectral pipeline ----------------------------------------------------


def test_criterion_8_spectral_pipeline():
    import math

    import numpy as np

    from rank1flow import affinity, bochner_density, curve_from_samples, dilate
    from rank1flow.spectral import SpectralEstimate

    started = time.monotonic()
    dt, t_max = 0.05, 20.0
    n = int(round(t_max / dt))
    ts = [i * dt for i in range(-n, n + 1)]

    gauss = curve_from_samples(dt, [math.exp(-math.pi * t * t) for t in ts])
    g_est = bochner_density(gauss, lam_max=4.0, grid_size=1601, taper_width=15.0)
    g_err = float(np.max(np.abs(g_est.density - np.exp(-math.pi * g_est.freqs**2))))

    cos = curve_from_samples(dt, [math.cos(2 * math.pi * t) for t in ts])
    c_est = bochner_density(cos, lam_max=4.0, grid_size=1601, taper_width=6.0)
    lobes = (np.abs(c_est.freqs - 1.0) <= 0.25) | (np.abs(c_est.freqs + 1.0) <= 0.25)
    trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz  # numpy < 2 lacks trapezoid
    lobe_frac = float(trapezoid(np.where(lobes, c_est.density, 0.0), c_est.freqs)) / c_est.total_mass

    s = 2.0
    scaled = curve_from_samples(dt * s, gauss.values)
    scaled_est = bochner_density(scaled, lam_max=4.0 / s, grid_size=1601, taper_width=15.0 * s)
    dil = dilate(g_est, s)
    dil_err = float(np.max(np.abs(dil.density - scaled_est.density)))

    sym_ok = affinity(g_est, c_est) == affinity(c_est, g_est)
    self_ok = affinity(g_est, g_est) == 1.0
    freqs = np.linspace(-2.0, 2.0, 401)
    a = SpectralEstimate(freqs=freqs, density=np.where(freqs < -0.5, 1.0, 0.0), taper_kind="gaussian", taper_width=1.0)
    b = SpectralEstimate(freqs=freqs, density=np.where(freqs > 0.5, 1.0, 0.0), taper_kind="gaussian", taper_width=1.0)
    disjoint_ok = affinity(a, b) == 0.0

    elapsed = time.monotonic() - started
    ok = g_err < 1e-3 and lobe_frac >= 0.9 and dil_err < 1e-6 and sym_ok and self_ok and disjoint_ok
    verdict(
        8,
        ok,
        f"gaussian sup error {g_err:.2e} (<1e-3), cosine lobe mass {lobe_frac:.3f} (>=0.9), "
        f"dilation pipelines differ by {dil_err:.2e} (<1e-6), affinity axioms exact, {elapsed:.1f}s",
    )


# -- 9: CLI determinism ------------------------------------------------------

CLI_SPECS = {
    "stage-audit": {"schedule": {"kind": "asym49", "params": {}}, "depth": 8, "finiteness_horizon": 8},
    "correlate": {
        "schedule": {"kind": "flat", "params": {"r": 3}},
        "times": ["0", "1/2", "-3/4", "5/4"],
        "oracle": True,
        "seed": 1,
    },
    "weak-limit": {
        "schedule": {"kind": "staircase34", "params": {"staircase_stages": [2, 3], "base": 4, "r_cap": 16}},
        "times": {"kind": "heights", "stages": [2, 3], "d": "3/4"},
        "target": {"alpha": 0.25},
        "threshold": 0.1,
        "mean_zero": True,
        "family_size": 2,
        "seed": 0,
    },
    "triple-asymmetry": {
        "schedule": {"kind": "asym49", "params": {}},
        "stage_count": 2,
        "forward_sets": 2,
        "seed": 0,
    },
    "fock-claims": {
        "schedule": {"kind": "thm44", "params": {"s_values": [2], "q_max": 2, "k_max": 1}},
        "class_label": "M[l0=1;2]",
        "build_to": 5,
        "shifts": ["2"],
        "l0": 1,
        "stage": 2,
        "levels": 5,
        "seed": 0,
        "family_size": 1,
        "off_scale": "3",
    },
    "spectrum": {"analytic": {"kind": "gaussian"}, "dt": 0.05, "t_max": 20.0, "taper_width": 15.0, "lam": 4.0},
    "disjointness": {
        "analytic": {"kind": "cosine", "freqs": [1.0]},
        "dt": 0.05,
        "t_max": 20.0,
        "taper_width": 6.0,
        "lam": 4.0,
        "dilations": [2.0],
        "threshold": 0.5,
    },
    "reflection-check": {"schedule": {"kind": "asym49", "params": {}}, "cases": 10, "seed": 0},
}


# SHA-256 of report.json and plot.csv per CLI_SPECS kind, recorded before the
# integer-lattice kernel (Python 3.11.7, NumPy 2.4.6, x86-64): the kernel and
# every later change must keep these bytes unless a change of values is
# intended and recorded in CHANGES.md.  The spectrum and disjointness entries
# were re-recorded when bochner_density became a Horner evaluation, which moves
# densities and affinities at the rounding level.  The stage-audit report was
# re-recorded when the finiteness entry lost its "status" key (a finite
# horizon decides neither convergence nor divergence); its plot is unchanged.
CLI_SPEC_SHA256 = {
    "stage-audit": (
        "363e5edd0ba916dc5083e94c79b9eba0a23b66c0d631a296aed6f79507d36a9c",
        "85da338cb8833bf2692a84efcdec1a7ba08d5ebd61cf45095c240b597771313d",
    ),
    "correlate": (
        "87fc4550c4abfd45f212dd141e265a9f00136415af3110152c4e3347364fb1c9",
        "546665480481e16f04c873787b2496974cd53202cb8353cf31d5bfe1381cfbe3",
    ),
    "weak-limit": (
        "8cda3f60dc6d70189773ec08bd39227daecbeb91bbf24d1fa15a1cd346890b36",
        "3715fb792380e2678087ed06b6cc8b17fb2dd4070662cfca4e6cdd94b02aaa35",
    ),
    "triple-asymmetry": (
        "e5e09e3349ee369bcd33e3095e3eb960dbc5842fb2eb27e14860e85db71d4466",
        "4615bd28ac18ca8449e2524078a592015ea868e41c8da40fed3f58b9dc35972f",
    ),
    "fock-claims": (
        "fb1288fdb6253fdb7b35cbe4f9eb9809479c6c8715248b217c2048d8a7666cda",
        "30411c2c687f037d8c177aedb50a3ca7414c10081f1d0443f843fdb50dc65e6c",
    ),
    "spectrum": (
        "0d403d317f7abdbf0c97b66fde399cc2bb9b9365e4deecd2ffe852261c133937",
        "c5be6dfb2ac05054e29a1d4019185362360912ee8cab906cf19e66b267b7d1ae",
    ),
    "disjointness": (
        "167a2d8a2e3e49b4121aceebe20efd191dd88722069a761c38ff90d87f885324",
        "7459d1624c6a414198bbcad40535526f354caa6dbbc756f1a856b6f9d8264f14",
    ),
    "reflection-check": (
        "cf95fd508fe48bf2310d26b13f109854a1600f8aa6db3c45dab25f6d0c5b3294",
        "86330638f6fd26696c20efe1953796812a9acab9fb12d0f43aefbfbf934bcf84",
    ),
}


def test_criterion_9_cli_determinism(tmp_path):
    # the CLI runs in a child process: give it the package this suite imports
    package_root = str(Path(rank1flow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    started = time.monotonic()
    mismatches = []
    for kind, spec in CLI_SPECS.items():
        spec_path = tmp_path / f"{kind}.json"
        spec_path.write_text(json.dumps(spec))
        outputs = []
        codes = []
        for run in ("a", "b"):
            out = tmp_path / f"{kind}-{run}"
            proc = subprocess.run(
                [sys.executable, "-m", "rank1flow.cli", kind, "--spec", str(spec_path), "--out", str(out)],
                capture_output=True,
                env=env,
            )
            codes.append(proc.returncode)
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            outputs.append(files)
        if outputs[0] != outputs[1] or codes[0] != codes[1]:
            mismatches.append(kind)
        assert codes[0] in (0, 1), f"{kind} errored: {codes}"
    elapsed = time.monotonic() - started
    ok = not mismatches
    verdict(
        9,
        ok,
        f"all {len(CLI_SPECS)} experiment kinds byte-identical across reruns in {elapsed:.1f}s"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )


def test_cli_specs_output_bytes_are_pinned(tmp_path):
    """Criterion 9 compares two runs of one commit; this pins the bytes
    across commits."""
    runner = CliRunner()
    drift = []
    for kind, spec in CLI_SPECS.items():
        spec_path = tmp_path / f"{kind}.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / kind
        result = runner.invoke(main, [kind, "--spec", str(spec_path), "--out", str(out)])
        assert result.exit_code in (0, 1), f"{kind} errored: {result.output}"
        digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("report.json", "plot.csv"))
        if digests != CLI_SPEC_SHA256[kind]:
            drift.append(kind)
    assert not drift, f"report.json/plot.csv bytes changed for {drift}"


# Specs whose bytes CLI_SPECS does not cover, pinned the same way: a schedule
# autocorrelation curve sampled at 321 engine times (the asym49-spectrum
# benchmark op at seed 0, which exits 1), and criterion 3's decade split on a
# base-100 staircase (exits 0).  Kind, spec, exit code and the SHA-256 of
# report.json and plot.csv, recorded at commit 3c4c5aa (Python 3.11.7, NumPy
# 2.4.6, x86-64), before a batch's times were put on the lattice once.
ENGINE_PINS = {
    "asym49-disjointness": (
        "disjointness",
        {"schedule": {"kind": "asym49", "params": {}}, "dt": 0.05, "t_max": 16, "grid_size": 1601, "dilations": [2, 3]},
        1,
        (
            "e0370dc2a51092f802de85e3ec6bb98402eaf110968f4d5d29b21cbdd482e0c9",
            "398ca319186af3b6e125e79402c4f27e9a368378d5bd62ad69c784f7c025d59f",
        ),
    ),
    "base-100-decade-split": (
        "weak-limit",
        {
            "schedule": {"kind": "staircase34", "params": {"staircase_stages": [2, 4, 6], "base": 100, "r_cap": 400}},
            "times": {"kind": "heights", "stages": [2, 4], "d": "-9/10"},
            "target": {"alpha": 0.1},
            "mean_zero": True,
            "family_size": 2,
        },
        0,
        (
            "6176f46252bdbea3b77eee552744afce1ce65094398016a4470ebf09c6a881d0",
            "26a5ffa1a5c965a73113526555a8fd99d76f6e8e1e2dbbf3cafbfd0b86c603b4",
        ),
    ),
}


@pytest.mark.parametrize("name", list(ENGINE_PINS))
def test_engine_output_bytes_are_pinned(tmp_path, name):
    kind, spec, code, digests = ENGINE_PINS[name]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**spec, "seed": 0}))
    result = CliRunner().invoke(main, [kind, "--spec", str(spec_path), "--out", str(tmp_path / "out")])
    assert result.exit_code == code, result.output
    assert tuple(hashlib.sha256((tmp_path / "out" / n).read_bytes()).hexdigest() for n in ("report.json", "plot.csv")) == digests
