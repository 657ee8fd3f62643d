"""Experiment runners behind the ``rank1`` command line.

Each runner takes a parsed experiment spec (a plain dict), drives the
library, and returns a JSON-ready report dict plus a pass/fail verdict.
Reports are deterministic: seeds are explicit, iteration orders fixed,
and nothing time- or host-dependent goes into the report body.  A runner
reads every entry of its spec, then closes the spec (an entry nothing
read is an error) before it runs the experiment.  A boolean entry must
be JSON true or false, an integer entry a JSON integer and a number
entry a finite JSON number; the one numeric string read as a number is a
schedule curve's ``dt``, taken exactly from its decimal text.
"""

from __future__ import annotations

import csv
import random
from fractions import Fraction
from functools import partial

from .correlate import (
    CorrelationResult,
    Correlator,
    FockComponent,
    MCorrelator,
    WeakLimitTarget,
    correlate,
    inner_product,
    perturbation_bound,
    pick_stage,
    weak_limit_probe,
)
from .errors import ConfigurationError
from .oracle import oracle_correlate
from .schedule import Schedule, finiteness_test, symmetrize
from .scalars import scalar_from_string, scalar_to_string, to_float
from .serialize import Reader, boolean, correlation_result_to_json, integer, load_schedule, number, parse_as, positive
from .spectral import affinity, autocorr_curve, bochner_density, curve_from_samples, dilate, sample_count
from .stepfun import StepFunction, lift, random_level_set, random_step_function, reflect

REPORT_VERSION = "rank1-report-1"

KINDS = (
    "stage-audit",
    "correlate",
    "weak-limit",
    "triple-asymmetry",
    "fock-claims",
    "spectrum",
    "disjointness",
    "reflection-check",
)


# ---------------------------------------------------------------------------
# spec plumbing
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _field(spec, key: str, parse, default=_REQUIRED):
    """spec[key] (or *default*) read through *parse*; a missing required
    entry or a malformed value is a ConfigurationError."""
    value = spec.get(key, _REQUIRED)
    if value is not _REQUIRED:
        return parse_as(value, f"spec entry {key!r}", parse)
    if default is _REQUIRED:
        raise ConfigurationError(f"spec needs a {key!r} entry")
    return parse(default)


def _positive_field(spec, key: str, parse, default):
    """A :func:`_field` that must be positive."""
    value = _field(spec, key, parse, default)
    if not value > 0:
        raise ConfigurationError(f"spec entry {key!r} must be positive, got {value}")
    return value


def _scalar(value):
    return scalar_from_string(str(value))


def _list_of(parse, least: int = 0):
    def parse_list(value):
        if not isinstance(value, list):
            raise TypeError("expected a list")
        if len(value) < least:
            raise ValueError(f"needs at least {least} entries")
        return [parse(v) for v in value]

    return parse_list


def _grid_size(value) -> int:
    if integer(value) < 2:
        raise ValueError("must be at least 2")
    return value


def _optional_number(value):
    return None if value is None else number(value)


def resolve_schedule(spec: dict) -> Schedule:
    doc = spec.get("schedule")
    if doc is None:
        raise ConfigurationError("experiment spec needs a 'schedule' entry")
    if isinstance(doc, dict) and "kind" in doc and "stages" not in doc and "named" not in doc:
        doc = {"named": doc}
    sched = load_schedule(doc)
    if _field(spec, "symmetrize", boolean, False):
        sched = symmetrize(sched)
    return sched


def resolve_times(schedule: Schedule, doc) -> list:
    """Literal time list, stage-height multiples, or recorded class times;
    a spec that names no time is a ConfigurationError."""
    times = _times(schedule, doc)
    if not times:
        raise ConfigurationError(f"times = {doc!r}: no time to evaluate")
    return times


def _times(schedule: Schedule, doc) -> list:
    if isinstance(doc, list):
        return [parse_as(t, "time", _scalar) for t in doc]
    if not isinstance(doc, dict):
        raise ConfigurationError(f"times = {doc!r}: expected a list of times or a time-spec object")
    doc = Reader(doc, "spec entry 'times'")
    kind = doc.get("kind")
    if kind == "heights":
        d = _field(doc, "d", _scalar, "1")
        stages = _field(doc, "stages", _list_of(integer))
        doc.close()
        return [d * schedule.height(n) for n in stages]
    if kind == "m_class":
        build_to = _field(doc, "build_to", integer)
        label = _field(doc, "label", str)
        doc.close()
        schedule.stage(build_to)
        recorded = schedule.meta.get("m_times", {}).get(label)
        if not recorded:
            raise ConfigurationError(f"no recorded times for class {label!r}")
        return [rec["t"] for rec in recorded if rec["stage"] <= build_to]
    raise ConfigurationError(f"unknown time spec kind {kind!r}")


def seeded_family(schedule: Schedule, params: dict, pair: bool = True) -> list:
    """Seeded family of stage-measurable test functions."""
    stage = _field(params, "stage", integer, 1)
    levels = _field(params, "levels", positive, 4)
    seed = _field(params, "seed", integer, 0)
    size = _field(params, "family_size", positive, 3)
    mean_zero = _field(params, "mean_zero", boolean, False)
    rng = random.Random(seed)
    h = schedule.height(stage)
    fam = []
    for _ in range(size):
        f = random_step_function(stage, h, levels, rng, mean_zero=mean_zero)
        if pair:
            g = random_step_function(stage, h, levels, rng, mean_zero=mean_zero)
            fam.append((f, g))
        else:
            fam.append(f)
    return fam


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def run_stage_audit(spec: dict):
    schedule = resolve_schedule(spec)
    depth = _field(spec, "depth", positive, 8)
    horizon = _field(spec, "finiteness_horizon", integer, 0)
    spec.close()
    items = []
    plot = []
    ok_all = True
    for n in range(1, depth + 1):
        st = schedule.stage(n)
        checks = {
            "offsets_increasing": all(a < b for a, b in zip(st.offsets, st.offsets[1:])),
            "offset_recursion": all(
                st.offsets[j] == st.offsets[j - 1] + st.h + st.spacers[j - 1]
                for j in range(1, st.r)
            ),
            "first_offset_is_bottom": st.offsets[0] == st.bottom,
        }
        if n < depth:
            nxt = schedule.stage(n + 1)
            checks["height_recursion"] = nxt.h == st.offsets[-1] + st.h + st.spacers[-1]
            checks["width_recursion"] = nxt.w == st.w / st.r
            checks["measure_recursion"] = nxt.measure == st.measure + st.spacer_mass_added
            checks["measure_monotone"] = not nxt.measure < st.measure
        ok = all(checks.values())
        ok_all = ok_all and ok
        items.append(
            {
                "n": n,
                "r": st.r,
                "h": scalar_to_string(st.h),
                "w": scalar_to_string(st.w),
                "measure": scalar_to_string(st.measure),
                "checks": checks,
                "ok": ok,
            }
        )
        plot.append([n, st.r, to_float(st.h, f"h_{n}"), to_float(st.measure, f"the measure of stage {n}")])
    report = {"items": items}
    if horizon:
        verdict = finiteness_test(schedule, horizon)
        report["finiteness"] = {
            "partial_sum": scalar_to_string(verdict.partial_sum),
            "horizon": verdict.horizon,
        }
    return report, ok_all, ("n,r,h,measure", plot)


def run_correlate(spec: dict):
    schedule = resolve_schedule(spec)
    (f, g) = seeded_family(schedule, spec, pair=True)[0]
    time_spec = spec.get("times", ["0"])
    against_oracle = _field(spec, "oracle", boolean, False)
    spec.close()
    times = resolve_times(schedule, time_spec)
    (results,) = Correlator(schedule, [(f, g)]).at(times)
    items = []
    ok_all = True
    for t, res in zip(times, results):
        item = {"t": scalar_to_string(t), **correlation_result_to_json(res)}
        if against_oracle:
            ref = oracle_correlate(schedule, f, g, t, stage=res.stage_used)
            gap = abs(res.value - ref)
            item["oracle_value"] = [ref.real, ref.imag]
            item["oracle_gap"] = gap
            item["ok"] = gap <= res.error_bound + 1e-9
            ok_all = ok_all and item["ok"]
        items.append(item)
    plot = [[i, float(t), it["value"][0], it["value"][1], it["error_bound"]] for i, (t, it) in enumerate(zip(times, items))]
    return {"items": items}, ok_all, ("i,t,re,im,bound", plot)


def _target_from_spec(doc) -> WeakLimitTarget:
    def cplx(v):
        if isinstance(v, list):
            if len(v) != 2:
                raise ValueError("expected a number or [re, im]")
            return complex(number(v[0]), number(v[1]))
        return complex(number(v), 0.0)

    doc = Reader(doc, "spec entry 'target'")
    target = WeakLimitTarget(
        alpha=_field(doc, "alpha", cplx, 0),
        beta=_field(doc, "beta", cplx, 0),
        s=_field(doc, "s", _scalar, "0"),
    )
    doc.close()
    return target


def run_weak_limit(spec: dict):
    schedule = resolve_schedule(spec)
    time_spec = spec.get("times", ["0"])
    target = _target_from_spec(spec.get("target", {"alpha": 1}))
    family = seeded_family(schedule, spec)
    threshold = _field(spec, "threshold", number, 0.05)
    spec.close()
    times = resolve_times(schedule, time_spec)
    probe = weak_limit_probe(schedule, times, target, family, threshold=threshold)
    items = [
        {"j": j, "t": scalar_to_string(t), "residual": r, "bound": b}
        for j, (t, r, b) in enumerate(zip(probe.times, probe.residuals, probe.bounds))
    ]
    report = {
        "items": items,
        "threshold": threshold,
        "final_residual": probe.final_residual,
        "final_below": probe.final_below,
    }
    plot = [[it["j"], float(t), it["residual"], it["bound"]] for t, it in zip(probe.times, items)]
    return report, bool(probe.final_below), ("j,t,residual,bound", plot)


def asym_stage_indices(schedule: Schedule, count: int) -> list:
    """The stages carrying the five-cut spacer layout, shallowest first."""
    period = int(schedule.meta.get("period", 2))
    return [1 + period * i for i in range(count)]


def forward_level_sets(schedule: Schedule, spec: dict) -> list:
    stage = _field(spec, "set_stage", integer, 2)
    levels = _field(spec, "set_levels", positive, 4)
    seed = _field(spec, "seed", integer, 0)
    count = _field(spec, "forward_sets", positive, 5)
    rng = random.Random(seed)
    h = schedule.height(stage)
    return [random_level_set(stage, h, levels, rng) for _ in range(count)]


def backward_candidates(schedule: Schedule, spec: dict) -> list:
    """Candidate witness sets: unit-height combs of integer period.

    The spacer displacements that survive the stacking are small integers,
    so combs whose period avoids them are natural witnesses."""
    stage = _field(spec, "set_stage", integer, 2)
    period_max = _field(spec, "backward_period_max", integer, 4)
    h = schedule.height(stage)
    out = []
    for period in range(2, period_max + 1):
        for phase in range(period):
            bps = [0 * h]
            vals = []
            pos = Fraction(0)
            m = 0
            while True:
                a = m * period + phase
                b = a + 1
                if b > h:
                    break
                if a > pos:
                    bps.append(Fraction(a))
                    vals.append(0j)
                bps.append(Fraction(b))
                vals.append(1 + 0j)
                pos = Fraction(b)
                m += 1
            if pos < h:
                bps.append(h)
                vals.append(0j)
            if any(v for v in vals):
                out.append((f"comb period={period} phase={phase}", StepFunction(stage, bps, vals)))
    if not out:
        raise ConfigurationError(
            f"no backward candidate: no comb of unit height and period 2 to {period_max} "
            f"fits in stage {stage} of height {scalar_to_string(h)}"
        )
    return out


def triple_ratios(schedule: Schedule, sets: list, ns: list, sign: int) -> list:
    """mu(A meet T_{sn}A meet T_{3sn}A) / mu(A) with its error bound and
    stage, for each n of *ns*: one list per set A of *sets*, from one pass."""
    answers = MCorrelator(schedule, [[a, a, a] for a in sets]).at([(0 * n, sign * n, 3 * sign * n) for n in ns])
    mus = [inner_product(schedule, a, a).real for a in sets]
    return [[(res.value.real / mu, res.error_bound / mu, res.stage_used) for res in results] for mu, results in zip(mus, answers)]


def run_triple_asymmetry(spec: dict):
    schedule = resolve_schedule(spec)
    count = _field(spec, "stage_count", positive, 3)
    thr_fwd = _field(spec, "forward_threshold", number, 0.19)
    thr_bwd = _field(spec, "backward_threshold", number, 0.1)
    forward_sets = forward_level_sets(schedule, spec)
    candidates = backward_candidates(schedule, spec)
    spec.close()
    n_times = [schedule.height(l) + 1 for l in asym_stage_indices(schedule, count)]
    forward_items = []
    plot = []
    worst_forward = None
    for s_idx, ratios in enumerate(triple_ratios(schedule, forward_sets, n_times, +1)):
        rows = []
        for i, (n, (ratio, bound, stage_used)) in enumerate(zip(n_times, ratios)):
            rows.append({"i": i, "n": scalar_to_string(n), "ratio": ratio, "bound": bound, "stage_used": stage_used})
            plot.append([s_idx, i, float(n), ratio, bound])
        final = rows[-1]["ratio"]
        worst_forward = final if worst_forward is None else min(worst_forward, final)
        forward_items.append({"set": s_idx, "rows": rows, "final_ratio": final})
    backward_items = []
    best = None
    backward = triple_ratios(schedule, [a for _, a in candidates], n_times[-1:], -1)
    for (label, _), ((ratio, bound, _),) in zip(candidates, backward):
        backward_items.append({"set": label, "final_ratio": ratio, "bound": bound})
        if best is None or ratio < best["final_ratio"]:
            best = backward_items[-1]
    passed = worst_forward >= thr_fwd and best["final_ratio"] <= thr_bwd
    report = {
        "forward": forward_items,
        "forward_liminf_estimate": worst_forward,
        "forward_threshold": thr_fwd,
        "backward": backward_items,
        "backward_best": best,
        "backward_threshold": thr_bwd,
    }
    return report, passed, ("set,i,n,ratio,bound", plot)


def run_fock_claims(spec: dict):
    schedule = resolve_schedule(spec)
    label = _field(spec, "class_label", str)
    build_to = spec.get("build_to", 12)
    shifts = _field(spec, "shifts", _list_of(_scalar, least=1))
    mults = tuple(_field(spec, "multiplicities", _list_of(integer), [1] * len(shifts)))
    l0 = _field(spec, "l0", integer, 1)
    if not 1 <= l0 <= len(shifts):
        raise ConfigurationError(f"spec entry 'l0' = {l0} must be from 1 to the number of shifts, {len(shifts)}")
    fam = seeded_family(schedule, spec, pair=False)
    vectors = tuple(fam[i % len(fam)] for i in range(len(shifts)))
    comp = FockComponent(tuple(shifts), mults, vectors)
    two_r = 2 * _field(spec, "pairs", positive, len(shifts))
    threshold = _field(spec, "threshold", number, 0.1)
    off_scale = None
    if spec.get("off_scale") is not None:
        off_scale = (_field(spec, "off_scale", _scalar), _field(spec, "off_scale_threshold", number, 0.05))
    spec.close()
    times = resolve_times(schedule, {"kind": "m_class", "label": label, "build_to": build_to})
    # one batch per factor: its class times s_l * t, then the l0 reference
    # (factor l0) and the off-scale probes b * t (factor 1), which do not
    # depend on the class time; norms are computed once
    batches = [[s_l * t for t in times] for s_l in comp.shifts]
    batches[l0 - 1].append(comp.shifts[l0 - 1])
    if off_scale is not None:
        batches[0] += [off_scale[0] * t for t in times]
    answers = [Correlator(schedule, [(f_l, f_l)]).at(batch)[0] for f_l, batch in zip(comp.vectors, batches)]
    norms = [inner_product(schedule, f_l, f_l).real for f_l in comp.vectors]
    predictions = [complex(norm / two_r) for norm in norms]
    predictions[l0 - 1] = answers[l0 - 1][len(times)].value / two_r
    items = []
    for j, t in enumerate(times):
        results = [answer[j] for answer in answers]
        factors = [
            {
                "l": pos,
                "s": scalar_to_string(s_l),
                **correlation_result_to_json(res),
                "predicted": [predicted.real, predicted.imag],
                "residual": abs(res.value - predicted) / max(norm, 1e-30),
            }
            for pos, (s_l, res, norm, predicted) in enumerate(zip(comp.shifts, results, norms, predictions), start=1)
        ]
        value = complex(1, 0)
        for res, n_l in zip(results, comp.multiplicities):
            value *= res.value**n_l
        repeated = [res for res, n_l in zip(results, comp.multiplicities) for _ in range(n_l)]
        bound = perturbation_bound([abs(r.value) for r in repeated], [r.error_bound for r in repeated])
        total = CorrelationResult(value=value, error_bound=bound, stage_used=max(r.stage_used for r in results))
        items.append({"t": scalar_to_string(t), "factors": factors, "component": correlation_result_to_json(total)})
    final = items[-1]
    max_res = max(fc["residual"] for fc in final["factors"])
    report = {"items": items, "final_max_factor_residual": max_res, "threshold": threshold}
    passed = max_res < threshold
    if off_scale is not None:
        b, off_threshold = off_scale
        probes = [abs(res.value) / norms[0] for res in answers[0][-len(times) :]]
        report["off_scale"] = {"b": scalar_to_string(b), "values": probes}
        passed = passed and probes[-1] < off_threshold
    plot = []
    for j, it in enumerate(items):
        for fc in it["factors"]:
            plot.append([j, fc["l"], fc["value"][0], fc["predicted"][0], fc["residual"]])
    return report, passed, ("j,l,re,predicted_re,residual", plot)


def _curve_for_spec(spec):
    """Read the curve entries of a spectrum or disjointness spec, which
    names exactly one of a 'schedule' and an 'analytic' curve; returns a
    function of no arguments that samples the curve."""
    if ("schedule" in spec) == ("analytic" in spec):
        raise ConfigurationError("spec needs exactly one of a 'schedule' and an 'analytic' curve")
    schedule = resolve_schedule(spec) if "schedule" in spec else None
    t_max = _positive_field(spec, "t_max", number, 8.0)
    if schedule is None:
        import math

        analytic = Reader(spec["analytic"], "spec entry 'analytic'")
        kind = analytic.get("kind")
        dt = _positive_field(spec, "dt", number, 0.05)
        n = sample_count(t_max, dt)
        ts = [i * dt for i in range(-n, n + 1)]
        if kind == "gaussian":
            vals = [math.exp(-math.pi * t * t) for t in ts]
        elif kind == "cosine":
            freqs = _field(analytic, "freqs", _list_of(number, least=1), [1.0])
            if not all(math.isfinite(2 * math.pi * l0 * ts[-1]) for l0 in freqs):
                raise ConfigurationError(f"spec entry 'freqs' = {freqs}: a phase 2 pi l t is past float range at t = {ts[-1]}")
            vals = [sum(math.cos(2 * math.pi * l0 * t) for l0 in freqs) for t in ts]
        else:
            raise ConfigurationError(f"unknown analytic curve {kind!r}")
        analytic.close()
        return partial(curve_from_samples, dt, vals)
    # the sample times i * dt stay exact, so a rational schedule keeps its
    # lattice kernel; a JSON number keeps its decimal text through repr
    dt = _positive_field(spec, "dt", lambda v: Fraction(str(v)), "0.05")
    sample_count(t_max, dt)
    f = seeded_family(schedule, spec, pair=False)[0]
    return partial(autocorr_curve, schedule, f, dt, t_max)


def _estimate_entries(spec) -> dict:
    """The keyword arguments of bochner_density that the spec sets."""
    return {
        "lam_max": _positive_field(spec, "lam", number, 4.0),
        "grid_size": _field(spec, "grid_size", _grid_size, 801),
        "taper_width": _field(spec, "taper_width", _optional_number, None),
    }


def run_spectrum(spec: dict):
    sample = _curve_for_spec(spec)
    estimate = _estimate_entries(spec)
    spec.close()
    curve = sample()
    est = bochner_density(curve, **estimate)
    c0 = curve.values[len(curve.values) // 2].real
    report = {
        "c0": c0,
        "total_mass": est.total_mass,
        "taper": {"kind": est.taper_kind, "width": est.taper_width},
        "grid": {"lam": float(est.freqs[-1]), "size": len(est.freqs)},
    }
    passed = abs(est.total_mass - c0) <= 1e-9 * max(1.0, abs(c0))
    plot = [[float(l), float(d)] for l, d in zip(est.freqs, est.density)]
    return report, passed, ("lambda,density", plot)


def run_disjointness(spec: dict):
    sample = _curve_for_spec(spec)
    estimate = _estimate_entries(spec)
    factors = _field(spec, "dilations", _list_of(number, least=1), [2.0])
    threshold = _field(spec, "threshold", number, 0.5)
    spec.close()
    est = bochner_density(sample(), **estimate)
    self_aff = affinity(est, est)
    items = [{"t": t, "affinity": affinity(est, dilate(est, t))} for t in factors]
    passed = self_aff == 1.0 and all(it["affinity"] < threshold for it in items)
    report = {"self_affinity": self_aff, "items": items, "threshold": threshold}
    plot = [[it["t"], it["affinity"]] for it in items]
    return report, passed, ("t,affinity", plot)


def reflection_cases(schedule: Schedule, spec: dict):
    """Random (f, g, t) with t on the scale of the small spacers, where
    the truncation bounds are tight and any reflection defect shows."""
    stage = _field(spec, "stage", integer, 1)
    levels = _field(spec, "levels", positive, 4)
    seed = _field(spec, "seed", integer, 0)
    cases = _field(spec, "cases", positive, 50)
    rng = random.Random(seed)
    h = schedule.height(stage)
    out = []
    for _ in range(cases):
        f = random_step_function(stage, h, levels, rng)
        g = random_step_function(stage, h, levels, rng)
        t = Fraction(rng.randrange(-40, 41), 16)
        out.append((f, g, t))
    return out


def run_reflection_check(spec: dict):
    """Does stage reflection implement time reversal consistently?

    f is reflected inside its own stage, g at a deeper one.  A schedule
    whose spacers are palindromic carries a global reflection, so the two
    choices of stage agree and correlate(Rf, Rg, -t) = correlate(f, g, t)
    within summed bounds; a genuinely asymmetric schedule has no global
    reflection and must break the identity at some case."""
    schedule = resolve_schedule(spec)
    depth = _field(spec, "reflect_depth", integer, 2)
    eval_depth = _field(spec, "eval_depth", integer, 3)
    cases = reflection_cases(schedule, spec)
    spec.close()
    items = []
    violations = 0
    plot = []
    for i, (f, g, t) in enumerate(cases):
        deep = g.stage + depth
        rf = lift(schedule, reflect(f), deep)
        rg = reflect(g, schedule, deep)
        n_eval = pick_stage(schedule, deep, [abs(t)])[0] + eval_depth
        lhs = correlate(schedule, f, g, t, stage=n_eval)
        rhs = correlate(schedule, rf, rg, -t, stage=n_eval)
        gap = abs(lhs.value - rhs.value)
        bound = lhs.error_bound + rhs.error_bound
        ok = gap <= bound + 1e-9
        violations += 0 if ok else 1
        items.append({"case": i, "t": scalar_to_string(t), "gap": gap, "bound": bound, "ok": ok})
        plot.append([i, float(t), gap, bound])
    gross = sum(1 for it in items if it["gap"] > 10.0 * (it["bound"] + 1e-9))
    report = {"items": items, "violations": violations, "gross_violations": gross}
    return report, violations == 0, ("case,t,gap,bound", plot)


_RUNNERS = {
    "stage-audit": run_stage_audit,
    "correlate": run_correlate,
    "weak-limit": run_weak_limit,
    "triple-asymmetry": run_triple_asymmetry,
    "fock-claims": run_fock_claims,
    "spectrum": run_spectrum,
    "disjointness": run_disjointness,
    "reflection-check": run_reflection_check,
}


def run_experiment(kind: str, spec: dict) -> dict:
    """Full report for one experiment; deterministic for a fixed spec."""
    if kind not in _RUNNERS:
        raise ConfigurationError(f"unknown experiment kind {kind!r}")
    body, passed, (header, rows) = _RUNNERS[kind](Reader(spec, "spec"))
    return {
        "version": REPORT_VERSION,
        "experiment": kind,
        "spec": spec,
        "result": body,
        "passed": bool(passed),
        "plot": {"columns": header, "rows": rows},
    }


def export_plotdata(report: dict, path) -> None:
    """CSV dump of the report's sequence-valued result."""
    plot = report.get("plot", {"columns": "", "rows": []})
    with open(path, "w", newline="") as fh:
        fh.write(f"# experiment: {report.get('experiment', '?')}; columns: {plot['columns']}\n")
        writer = csv.writer(fh)
        writer.writerow(plot["columns"].split(","))
        for row in plot["rows"]:
            writer.writerow(row)
