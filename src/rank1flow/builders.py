"""Named schedule builders.

Four families are provided:

* ``flat``        -- constant cuts, no spacers;
* ``staircase34`` -- flat stages with staircase roofs on a chosen
  subsequence, cuts r_n = base**n capped at a perfect square;
* ``asym49``      -- the asymmetric five-cut layout with spacers
  (0, 1, 1, 2, 2) on a subsequence, growing flat cuts in between;
* ``thm44``       -- stage indices partitioned round-robin among spacer
  classes L1[s,q] (constant sqrt(2)*s spacers), L2[s,q] (zero spacers on
  the bottom 1/q fraction of copies, s above) and M[l0; s_1..s_k]
  (k adjacent pairs of copies with calibrated gaps and fast-growing
  separators).

All builders are deterministic and desk-scale capped: unbounded parameter
sequences such as n! or base**n are clipped at a configurable cap, which
keeps the limits observable as convergence trends.
"""

from __future__ import annotations

import inspect
from fractions import Fraction
from math import ceil, factorial, isqrt
from numbers import Real

from .errors import ConfigurationError
from .scalars import Sqrt2, coerce, scalar_to_string
from .schedule import Schedule

DEFAULT_R_CAP = 4096


def staircase(u, r: int) -> list:
    """The staircase roof s(j) = (j - 1) * u, j = 1..r."""
    return [j * u for j in range(r)]


def fraction_split(q: int, s, r: int) -> list:
    """s(j) = 0 for j <= ceil(r/q), s(j) = s on the top (q-1)/q fraction."""
    cut = -(-r // q)
    return [0] * cut + [s] * (r - cut)


def paired_gaps(gaps, separators) -> list:
    """k adjacent pairs of copies (r = 2k): gap g_i above copy 2i-1,
    separator a_i above copy 2i; a_k is the final top spacer."""
    return [v for pair in zip(gaps, separators) for v in pair]


def _geometry(h1, w1, mode, /, **more) -> dict:
    """Meta entries for a builder's base data (as wire strings in *mode*)
    and *more*, so that :func:`named_schedule` rebuilds the schedule from
    its meta."""
    return {"h1": scalar_to_string(coerce(h1, mode)), "w1": scalar_to_string(coerce(w1, mode)), **more}


def flat_schedule(r: int = 2, h1=1, w1=1, mode="rational") -> Schedule:
    if r <= 1:
        raise ConfigurationError("flat schedule needs r > 1")

    def params(n, h, w):
        return r, [0] * r

    meta = {"kind": "flat", "r": r, **_geometry(h1, w1, mode, mode=mode)}
    return Schedule(params, h1=h1, w1=w1, mode=mode, name=f"flat(r={r})", meta=meta)


def staircase34_schedule(
    staircase_stages=(2, 4, 6),
    base: int = 4,
    r_cap: int = DEFAULT_R_CAP,
    h1=1,
    w1=1,
    mode="rational",
) -> Schedule:
    """Flat stages everywhere except the chosen subsequence, where the
    roof is the staircase s(j) = (j-1) * u with u = r**(-1/2).

    The stage preceding each staircase stage must be flat (it is, since
    only the listed stages carry spacers), and u is rational because the
    capped cut numbers are perfect squares.
    """
    stairs = set(staircase_stages)
    if any(n < 2 for n in stairs):
        raise ConfigurationError("staircase stages must be >= 2 (stage below must be flat)")
    if isqrt(r_cap) ** 2 != r_cap or isqrt(base) ** 2 != base:
        raise ConfigurationError("base and r_cap must be perfect squares so that u = r**(-1/2) is exact")

    def cuts(n):
        return min(base**n, r_cap)

    def params(n, h, w):
        r = cuts(n)
        if n in stairs:  # staircase(1/k, r) with k = sqrt(r), each j/k made directly
            k = isqrt(r)
            return r, [Fraction(j, k) for j in range(r)]
        return r, [0] * r

    return Schedule(
        params,
        h1=h1,
        w1=w1,
        mode=mode,
        name=f"staircase34(base={base})",
        meta={
            "kind": "staircase34",
            "base": base,
            "r_cap": r_cap,
            "staircase_stages": sorted(stairs),
            **_geometry(h1, w1, mode, mode=mode),
        },
    )


def asym49_schedule(
    period: int = 2,
    n_periods_growing_base: int = 4,
    r_cap: int = 64,
    h1=1,
    w1=1,
    mode="rational",
) -> Schedule:
    """Stages l_i = 1, 1+period, 1+2*period, ... carry five cuts with
    spacers (0, 1, 1, 2, 2); the following stages have growing cuts and
    no spacers.  Remaining stages (period > 2) are flat with r = 2."""
    if period < 2:
        raise ConfigurationError("period must be >= 2")

    def params(n, h, w):
        phase = (n - 1) % period
        if phase == 0:
            return 5, (0, 1, 1, 2, 2)
        if phase == 1:
            r = min(n_periods_growing_base * 2 ** ((n - 1) // period), r_cap)
            return r, [0] * r
        return 2, [0, 0]

    return Schedule(
        params,
        h1=h1,
        w1=w1,
        mode=mode,
        name="asym49",
        meta={
            "kind": "asym49",
            "period": period,
            "n_periods_growing_base": n_periods_growing_base,
            "r_cap": r_cap,
            **_geometry(h1, w1, mode, mode=mode),
        },
    )


# ---------------------------------------------------------------------------
# the partitioned construction
# ---------------------------------------------------------------------------


def _class_list(s_values, q_max, k_max):
    classes = []
    for s in s_values:
        for q in range(1, q_max + 1):
            classes.append(("L1", s, q))
            classes.append(("L2", s, q))
    svals = sorted(s_values)
    for k in range(1, k_max + 1):
        for combo in _ascending_tuples(svals, k):
            for l0 in range(1, k + 1):
                classes.append(("M", combo, l0))
    return classes


def _ascending_tuples(vals, k):
    if k == 0:
        yield ()
        return
    for i, v in enumerate(vals):
        for rest in _ascending_tuples(vals[i + 1 :], k - 1):
            yield (v,) + rest


def class_label(cls) -> str:
    kind = cls[0]
    if kind == "M":
        return f"M[l0={cls[2]};{','.join(str(s) for s in cls[1])}]"
    return f"{kind}[s={cls[1]},q={cls[2]}]"


def thm44_schedule(
    s_values=(2,),
    q_max: int = 2,
    k_max: int = 1,
    r_cap: int = DEFAULT_R_CAP,
    growth: int = 10,
    t_base: int = 2,
    m_first: bool = False,
    h1=1,
    w1=1,
) -> Schedule:
    """Round-robin partition of the stage indices among the classes built
    from the finite approximation ``s_values`` of the scale group.

    L1[s,q] stages add the constant spacer sqrt(2)*s on every copy, so
    shifting by the tower height realizes a uniform sqrt(2)*s
    displacement.  L2[s,q] stages leave the bottom 1/q fraction of the
    gaps empty and put s above the rest.  M stages cut into 2k copies
    arranged in k pairs; the offset difference inside pair i is exactly
    t_j * s_i (pair l0: t_j * s_{l0} - s_{l0}), with separators
    a_{j,i} = j * t_j * s_max * growth**i between pairs, so that the pair
    alignment times grow much slower than the separators.

    The per-class visit counters and the chosen t_j are recorded in
    ``schedule.meta`` as stages get built.
    """
    if not s_values:
        raise ConfigurationError("empty generating set for the scale group")
    if any(s <= 0 for s in s_values):
        raise ConfigurationError("scale values must be positive")
    classes = _class_list(tuple(s_values), q_max, k_max)
    if m_first:
        classes = [c for c in classes if c[0] == "M"] + [c for c in classes if c[0] != "M"]
    meta = {
        "kind": "thm44",
        "s_values": list(s_values),
        "q_max": q_max,
        "k_max": k_max,
        "r_cap": r_cap,
        "growth": growth,
        "t_base": t_base,
        "m_first": m_first,
        **_geometry(h1, w1, "sqrt2"),
        "classes": [class_label(c) for c in classes],
        "class_stages": {class_label(c): [] for c in classes},
        "m_times": {},
    }

    def cuts(n):
        return max(2, min(factorial(n), r_cap))

    def params(n, h, w):
        cls = classes[(n - 1) % len(classes)]
        label = class_label(cls)
        stages_seen = meta["class_stages"][label]
        if not stages_seen or stages_seen[-1] != n:
            stages_seen.append(n)
        j = stages_seen.index(n) + 1  # visit counter within the class
        kind = cls[0]
        if kind == "L1":
            r = cuts(n)
            return r, [Sqrt2(0, cls[1])] * r
        if kind == "L2":
            s, q = cls[1], cls[2]
            r = cuts(n)
            return r, fraction_split(q, s, r)
        combo, l0 = cls[1], cls[2]
        k = len(combo)
        s_min, s_max = combo[0], combo[-1]
        t_j = t_base**j * ceil((h + s_max + 1) / s_min)
        gaps = []
        for i, s in enumerate(combo, start=1):
            g = t_j * s - h
            if i == l0:
                g = g - s
            if g < 0:
                raise ConfigurationError(f"negative gap in M stage {n}; t_j too small")
            gaps.append(g)
        seps = [j * t_j * s_max * growth**i for i in range(1, k + 1)]
        meta["m_times"].setdefault(label, []).append({"stage": n, "t": t_j})
        return 2 * k, paired_gaps(gaps, seps)

    return Schedule(
        params,
        h1=h1,
        w1=w1,
        mode="sqrt2",
        name=f"thm44(S={list(s_values)})",
        meta=meta,
    )


_BUILDERS = {
    "flat": flat_schedule,
    "staircase34": staircase34_schedule,
    "asym49": asym49_schedule,
    "thm44": thm44_schedule,
}


def named_schedule(kind: str, **params) -> Schedule:
    builder = _BUILDERS.get(kind) if isinstance(kind, str) else None
    if builder is None:
        raise ConfigurationError(f"unknown schedule kind {kind!r}; choose from {sorted(_BUILDERS)}")
    _check_types(kind, builder, params)
    try:
        return builder(**params)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad parameters for a {kind!r} schedule: {exc}") from None


def _check_types(kind: str, builder, params: dict):
    """Builders read most parameters only when a stage gets built, so their
    types are checked here, against the builder's defaults: a sequence
    default takes a list of numbers, any other default a value of its own
    type.  h1 and w1, and names the builder does not take, are rejected
    by the builder itself."""
    signature = inspect.signature(builder).parameters
    for name, value in params.items():
        if name not in signature or name in ("h1", "w1"):
            continue
        default = signature[name].default
        if isinstance(default, tuple):
            ok = isinstance(value, (list, tuple)) and all(
                isinstance(v, Real) and not isinstance(v, bool) for v in value
            )
        else:
            ok = type(value) is type(default)
        if not ok:
            expected = "a list of numbers" if isinstance(default, tuple) else type(default).__name__
            raise ConfigurationError(f"{kind!r} schedule parameter {name} = {value!r}: expected {expected}")
