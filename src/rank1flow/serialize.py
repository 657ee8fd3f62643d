"""JSON wire formats.

Schedules:  {"mode", "h1", "w1", "stages": [{"r", "spacer": {...}}, ...]}
            or {"named": {"kind", "params"}}, where a builder's params carry
            any h1, w1 or mode; builders record every argument in their
            meta, so a named document rebuilds the schedule at every depth.
            A "spacer" object names a "variant" (explicit, constant,
            staircase, fraction_split, paired_gaps, symmetrized) and is
            read into the entry's spacer list and bottom spacer.
Exact scalars travel as strings "p/q" and "p/q+p'/q'*sqrt2".
A "stages" document repeats its last entry for all deeper stages.
"""

from __future__ import annotations

import json

from .builders import fraction_split, named_schedule, paired_gaps, staircase
from .errors import ConfigurationError
from .scalars import scalar_from_string, scalar_to_string
from .schedule import Schedule, reflected


def spacers_from_json(doc: dict, r: int) -> tuple:
    """The (spacers, bottom) of a stage entry's "spacer" object, for its r."""
    variant = doc.get("variant")
    if variant == "explicit":
        return [scalar_from_string(s) for s in doc["spacers"]], scalar_from_string(doc.get("bottom", "0"))
    if variant == "constant":
        return [scalar_from_string(doc["c"])] * r, 0
    if variant == "staircase":
        return staircase(scalar_from_string(doc["u"]), r), 0
    if variant == "fraction_split":
        return fraction_split(int(doc["q"]), scalar_from_string(doc["s"]), r), 0
    if variant == "paired_gaps":
        gaps, separators = doc["gaps"], doc["separators"]
        if len(gaps) != len(separators):
            raise ConfigurationError(
                f"paired gaps need one separator per gap: {len(gaps)} gaps, {len(separators)} separators"
            )
        return paired_gaps(map(scalar_from_string, gaps), map(scalar_from_string, separators)), 0
    if variant == "symmetrized":
        r_inner = int(doc["r_inner"])
        if r != 2 * r_inner - 1:
            raise ConfigurationError(f"symmetrized spacers need r = {2 * r_inner - 1}, got {r}")
        return reflected(spacers_from_json(doc["inner"], r_inner)[0])
    raise ConfigurationError(f"unknown spacer variant {variant!r}")


def schedule_from_json(doc: dict) -> Schedule:
    if not isinstance(doc, dict):
        raise ConfigurationError("a schedule document must be a JSON object")
    if "named" in doc:
        extra = sorted(k for k in ("h1", "w1", "mode") if k in doc)
        if extra:
            raise ConfigurationError(
                f"a 'named' schedule document cannot carry {extra}; pass them in named.params"
            )
        named = doc["named"]
        if not isinstance(named, dict) or "kind" not in named or not isinstance(named.get("params", {}), dict):
            raise ConfigurationError("'named' must be an object with a 'kind' and an optional 'params' object")
        unknown = sorted(set(named) - {"kind", "params"})
        if unknown:
            raise ConfigurationError(
                f"a named schedule takes only 'kind' and 'params', not {unknown}; builder parameters go in 'params'"
            )
        return named_schedule(named["kind"], **named.get("params", {}))
    mode = doc.get("mode", "rational")
    stages = doc.get("stages")
    if not stages:
        raise ConfigurationError("schedule document needs either 'named' or non-empty 'stages'")
    try:
        h1 = scalar_from_string(doc.get("h1", "1"))
        w1 = scalar_from_string(doc.get("w1", "1"))
        parsed = []
        for st in stages:
            r = int(st["r"])
            parsed.append((r, *spacers_from_json(st["spacer"], r)))
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"malformed 'stages' schedule document: {exc!r}") from None

    def params(n, h, w):
        return parsed[min(n - 1, len(parsed) - 1)]

    return Schedule(params, h1=h1, w1=w1, mode=mode, name="json", meta={"kind": "json"})


def schedule_to_json(schedule: Schedule, depth: int | None = None) -> dict:
    """A named document for a builder's schedule (its meta holds every
    builder argument), else the first *depth* (default 8) stages spelled out."""
    kind = schedule.meta.get("kind")
    if "symmetrized_from" in schedule.meta:
        kind = None
    if depth is None and kind not in (None, "json"):
        params = {k: v for k, v in schedule.meta.items() if k not in ("kind", "classes", "class_stages", "m_times")}
        return {"named": {"kind": kind, "params": params}}
    doc = {
        "mode": schedule.mode,
        "h1": scalar_to_string(schedule.h1),
        "w1": scalar_to_string(schedule.w1),
    }
    depth = depth or 8
    stages = []
    for n in range(1, depth + 1):
        st = schedule.stage(n)
        spacer = {"variant": "explicit", "spacers": [scalar_to_string(v) for v in st.spacers]}
        if st.bottom != 0:
            spacer["bottom"] = scalar_to_string(st.bottom)
        stages.append({"r": st.r, "spacer": spacer})
    doc["stages"] = stages
    return doc


def load_schedule(source) -> Schedule:
    """Accept a parsed dict, a JSON string, or a file path."""
    if isinstance(source, dict):
        return schedule_from_json(source)
    text = str(source)
    try:
        if text.strip().startswith("{"):
            doc = json.loads(text)
        else:
            with open(text) as fh:
                doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read schedule {text!r}: {exc}") from None
    return schedule_from_json(doc)


def correlation_result_to_json(res) -> dict:
    return {
        "value": [res.value.real, res.value.imag],
        "error_bound": res.error_bound,
        "stage_used": res.stage_used,
    }
