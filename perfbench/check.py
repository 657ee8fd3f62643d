"""Correctness gate: which fields of a report are checked, and how.

A *view* of an op holds its checked fields in three groups, keyed by a
path such as ``0:items[1].residual`` (call index, then the place in the
report):

* ``exact``   -- verdicts, labels, stage indices and exact times; they must
  match the reference exactly;
* ``bounded`` -- ``[value, error_bound]`` pairs; a value must lie within
  the two bounds combined of the reference value;
* ``approx``  -- floats the report ships without a bound (spectral
  affinities); they must match the reference within ``APPROX_TOL``.

Against the recorded reference (default seed) all three groups are
compared.  For any other seed only the structure is checked: bounds
finite and >= 0, values finite.
"""

from __future__ import annotations

import math

APPROX_TOL = 1e-9


def _weak_limit(r: dict, out: dict, p: str) -> None:
    res = r["result"]
    out["exact"][f"{p}final_below"] = res["final_below"]
    for it in res["items"]:
        q = f"{p}items[{it['j']}]"
        out["exact"][f"{q}.t"] = it["t"]
        out["bounded"][f"{q}.residual"] = [it["residual"], it["bound"]]


def _triple(r: dict, out: dict, p: str) -> None:
    res = r["result"]
    for it in res["forward"]:
        for row in it["rows"]:
            q = f"{p}forward[{it['set']}].rows[{row['i']}]"
            out["exact"][f"{q}.n"] = row["n"]
            out["exact"][f"{q}.stage_used"] = row["stage_used"]
            out["bounded"][f"{q}.ratio"] = [row["ratio"], row["bound"]]
    for k, it in enumerate(res["backward"]):
        q = f"{p}backward[{k}]"
        out["exact"][f"{q}.set"] = it["set"]
        out["bounded"][f"{q}.final_ratio"] = [it["final_ratio"], it["bound"]]


def _disjointness(r: dict, out: dict, p: str) -> None:
    res = r["result"]
    out["exact"][f"{p}self_affinity"] = res["self_affinity"]
    for k, it in enumerate(res["items"]):
        out["exact"][f"{p}items[{k}].t"] = it["t"]
        out["approx"][f"{p}items[{k}].affinity"] = it["affinity"]


_VIEWS = {"weak-limit": _weak_limit, "triple-asymmetry": _triple, "disjointness": _disjointness}


def op_view(reports: list) -> dict:
    """The checked fields of one op (one report per call)."""
    out = {"exact": {}, "bounded": {}, "approx": {}}
    for i, report in enumerate(reports):
        p = f"{i}:"
        out["exact"][f"{p}experiment"] = report["experiment"]
        out["exact"][f"{p}passed"] = report["passed"]
        _VIEWS[report["experiment"]](report, out, p)
    return out


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def structural_problems(view: dict) -> list:
    """Problems visible without a reference."""
    problems = []
    for path, (value, bound) in view["bounded"].items():
        if not _finite(value):
            problems.append(f"{path}: value {value!r} is not finite")
        if not _finite(bound) or bound < 0:
            problems.append(f"{path}: bound {bound!r} is not finite and >= 0")
    for path, value in view["approx"].items():
        if not _finite(value):
            problems.append(f"{path}: value {value!r} is not finite")
    for path, value in view["exact"].items():
        if path.endswith(":passed") and not isinstance(value, bool):
            problems.append(f"{path}: verdict {value!r} is not a bool")
    return problems


def reference_problems(view: dict, ref: dict) -> list:
    """Differences from the reference view of the same op."""
    problems = []
    for group in ("exact", "bounded", "approx"):
        if view[group].keys() != ref[group].keys():
            missing = sorted(ref[group].keys() - view[group].keys())
            extra = sorted(view[group].keys() - ref[group].keys())
            problems.append(f"{group} fields differ: missing {missing[:3]}, extra {extra[:3]}")
    for path, want in ref["exact"].items():
        got = view["exact"].get(path)
        if path in view["exact"] and got != want:
            problems.append(f"{path}: {got!r} != reference {want!r}")
    for path, (want, want_bound) in ref["bounded"].items():
        if path not in view["bounded"]:
            continue
        got, bound = view["bounded"][path]
        if not abs(got - want) <= bound + want_bound:
            problems.append(f"{path}: {got!r} differs from reference {want!r} by more than {bound + want_bound:.3g}")
    for path, want in ref["approx"].items():
        if path not in view["approx"]:
            continue
        got = view["approx"][path]
        if not abs(got - want) <= APPROX_TOL:
            problems.append(f"{path}: {got!r} differs from reference {want!r} by more than {APPROX_TOL:g}")
    return problems


def op_problems(view: dict, ref: dict | None) -> list:
    """Every problem of one op: structure always, the reference when known."""
    problems = structural_problems(view)
    if ref is not None:
        problems += reference_problems(view, ref)
    return problems


def fail_frac(outcomes: list) -> float:
    """Failed ops over attempted ops; an outcome is the op's problem list
    (an op that raised carries its exception as a problem)."""
    if not outcomes:
        raise ValueError("no ops attempted")
    return sum(1 for problems in outcomes if problems) / len(outcomes)
