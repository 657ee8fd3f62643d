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

Documents and experiment specs are read through :class:`Reader`, which
rejects every entry that nothing reads, and through strict parsers:
:func:`integer` takes only JSON integers, :func:`number` only finite JSON
numbers (not booleans or strings), :func:`boolean` only true and false.
"""

from __future__ import annotations

import json
from math import isfinite

from .builders import fraction_split, named_schedule, paired_gaps, staircase
from .errors import ConfigurationError
from .scalars import scalar_from_string, scalar_to_string
from .schedule import Schedule, reflected


class Reader:
    """A JSON object whose reads are recorded: :meth:`close` rejects the
    entries nothing read, naming them, so that a misspelt or misplaced
    entry is an error and not a silent default."""

    def __init__(self, doc, what: str):
        if not isinstance(doc, dict):
            raise ConfigurationError(f"{what} must be a JSON object")
        self.what, self._doc, self._read = what, doc, set()

    def __contains__(self, key) -> bool:
        return key in self._doc

    def __getitem__(self, key):
        self._read.add(key)
        return self._doc[key]

    def get(self, key, default=None):
        self._read.add(key)
        return self._doc.get(key, default)

    def close(self) -> None:
        unread = [key for key in self._doc if key not in self._read]
        if unread:
            raise ConfigurationError(f"{self.what} has unknown or unused entries {unread}")


def parse_as(value, what: str, parse):
    """parse(value); a value it rejects is a ConfigurationError naming *what*."""
    try:
        return parse(value)
    except (TypeError, ValueError, IndexError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigurationError(f"{what} = {value!r}: {exc}") from None


def integer(value) -> int:
    if type(value) is not int:  # not isinstance: a boolean is an int
        raise TypeError("expected an integer")
    return value


def positive(value) -> int:
    if integer(value) < 1:
        raise ValueError("must be at least 1")
    return value


def number(value) -> float:
    if type(value) not in (int, float):  # not a boolean, and not a numeric string
        raise TypeError("expected a number")
    x = float(value)
    if not isfinite(x):
        raise ValueError("must be finite")
    return x


def boolean(value) -> bool:
    if type(value) is not bool:
        raise TypeError("expected true or false")
    return value


def spacers_from_json(doc: dict, r: int, what: str) -> tuple:
    """The (spacers, bottom) of a stage entry's "spacer" object, for its r;
    *what* names the object in error messages."""
    doc = Reader(doc, what)
    variant = doc.get("variant")
    bottom = 0
    if variant == "explicit":
        spacers = [scalar_from_string(s) for s in doc["spacers"]]
        bottom = scalar_from_string(doc.get("bottom", "0"))
    elif variant == "constant":
        spacers = [scalar_from_string(doc["c"])] * r
    elif variant == "staircase":
        spacers = staircase(scalar_from_string(doc["u"]), r)
    elif variant == "fraction_split":
        spacers = fraction_split(parse_as(doc["q"], f"{what} entry 'q'", positive), scalar_from_string(doc["s"]), r)
    elif variant == "paired_gaps":
        gaps, separators = doc["gaps"], doc["separators"]
        if len(gaps) != len(separators):
            raise ConfigurationError(
                f"paired gaps need one separator per gap: {len(gaps)} gaps, {len(separators)} separators"
            )
        spacers = paired_gaps(map(scalar_from_string, gaps), map(scalar_from_string, separators))
    elif variant == "symmetrized":
        r_inner = parse_as(doc["r_inner"], f"{what} entry 'r_inner'", integer)
        if r != 2 * r_inner - 1:
            raise ConfigurationError(f"symmetrized spacers need r = {2 * r_inner - 1}, got {r}")
        spacers, bottom = reflected(spacers_from_json(doc["inner"], r_inner, f"{what}.inner")[0])
    else:
        raise ConfigurationError(f"unknown spacer variant {variant!r}")
    doc.close()
    return spacers, bottom


def schedule_from_json(doc: dict) -> Schedule:
    doc = Reader(doc, "schedule document")
    if "named" in doc:
        named = Reader(doc["named"], "named schedule (its builder's parameters, h1, w1 and mode go in 'params')")
        doc.close()
        kind, params = named.get("kind"), named.get("params", {})
        named.close()
        if not isinstance(params, dict):
            raise ConfigurationError(f"named schedule 'params' must be a JSON object, got {params!r}")
        return named_schedule(kind, **params)
    mode = doc.get("mode", "rational")
    stages = doc.get("stages")
    if not stages:
        raise ConfigurationError("schedule document needs either 'named' or non-empty 'stages'")
    try:
        h1 = scalar_from_string(doc.get("h1", "1"))
        w1 = scalar_from_string(doc.get("w1", "1"))
        doc.close()
        parsed = []
        for i, st in enumerate(stages):
            st = Reader(st, f"stages[{i}]")
            r = parse_as(st["r"], f"stages[{i}] entry 'r'", integer)
            parsed.append((r, *spacers_from_json(st["spacer"], r, f"stages[{i}].spacer")))
            st.close()
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
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigurationError(f"cannot read schedule {text!r}: {exc}") from None
    return schedule_from_json(doc)


def correlation_result_to_json(res) -> dict:
    return {
        "value": [res.value.real, res.value.imag],
        "error_bound": res.error_bound,
        "stage_used": res.stage_used,
    }
