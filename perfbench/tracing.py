"""Layer spans and counters, recorded from outside the package.

The tracer replaces the module attributes that the engine looks up at
call time with thin wrappers, so no file of ``rank1flow`` is touched.
Each wrapped boundary either opens a span (name, start, end, parent) or,
where a span would cost more than the work behind it, only bumps a
counter:

* ``Schedule.stage``    -- counted; a span only when the call extends
  the tower (``schedule.build``);
* ``Schedule.overlaps`` -- counted (it is a cache lookup);
* ``overlap_pairs``     -- span ``schedule.overlap`` plus delta, copy-pair
  and scalar-kind counters;
* ``cross_correlation``, ``product_integral`` (as looked up by the
  correlate module) -- span ``stepfun.base``;
* ``Correlator.at``, ``MCorrelator.at`` -- span ``correlate.at``;
* ``bochner_density`` (as looked up by the experiments module) -- span
  ``spectral.bochner``; ``affinity`` and ``dilate`` -- span
  ``spectral.affinity``.

The op itself is the root span, ``experiments``.  Spans are kept in
memory for the current op; :meth:`Tracer.finish_op` folds them into self
times (duration minus the time covered by direct children), so the self
times of all spans of an op sum to the op's duration exactly.
"""

from __future__ import annotations

import importlib
from collections import Counter
from fractions import Fraction
from time import perf_counter

SPAN_NAMES = (
    "experiments",
    "schedule.build",
    "schedule.overlap",
    "stepfun.base",
    "correlate.at",
    "spectral.bochner",
    "spectral.affinity",
)


def height_bits(h) -> int:
    """Bit length of the largest numerator in an exact height."""
    if isinstance(h, int):
        return h.bit_length()
    if isinstance(h, Fraction):
        return h.numerator.bit_length()
    parts = [getattr(h, "a", None), getattr(h, "b", None)]
    return max((Fraction(p).numerator.bit_length() for p in parts if p is not None), default=0)


def scalar_kind(shift, h) -> str:
    """The arithmetic ``overlap_pairs`` runs in for this shift and height."""
    if isinstance(shift, float) or isinstance(h, float):
        return "float"
    if isinstance(shift, (int, Fraction)) and isinstance(h, (int, Fraction)):
        return "rational"
    return "sqrt2"


class Tracer:
    """Installs the wrappers and accumulates one op's spans and counts."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.height_bits = 0
        self.missing: list = []
        self._open: list = []  # indices of the spans still open
        self._patches: list = []  # (owner, attribute, original)

    # -- spans -----------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._open.pop()

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        self.missing = []
        schedule_mod = importlib.import_module("rank1flow.schedule")
        correlate_mod = importlib.import_module("rank1flow.correlate")
        experiments_mod = importlib.import_module("rank1flow.experiments")
        counts = self.counts

        def wrap_stage(original):
            def stage(sched, n):
                counts["stage_calls"] += 1
                built = len(getattr(sched, "_stages", ()))
                if n <= built:
                    return original(sched, n)
                idx = self._enter("schedule.build")
                try:
                    st = original(sched, n)
                finally:
                    self._exit(idx)
                counts["stages_built"] += len(getattr(sched, "_stages", ())) - built
                self.height_bits = max(self.height_bits, height_bits(st.h))
                return st

            return stage

        def wrap_overlaps(original):
            def overlaps(sched, *args, **kwargs):
                counts["overlaps_calls"] += 1
                return original(sched, *args, **kwargs)

            return overlaps

        def wrap_overlap_pairs(original):
            def overlap_pairs(stage, shift, *args, **kwargs):
                idx = self._enter("schedule.overlap")
                try:
                    pairs = original(stage, shift, *args, **kwargs)
                finally:
                    self._exit(idx)
                counts["overlap_calls"] += 1
                counts[f"overlap_{scalar_kind(shift, stage.h)}_calls"] += 1
                counts["overlap_deltas"] += len(pairs)
                counts["overlap_copy_pairs"] += sum(m for _, m in pairs)
                return pairs

            return overlap_pairs

        def counted_span(name, counter):
            def make(original):
                spanned = self._spanned(name, original)

                def wrapper(*args, **kwargs):
                    counts[counter] += 1
                    return spanned(*args, **kwargs)

                return wrapper

            return make

        def wrap_bochner(original):
            spanned = self._spanned("spectral.bochner", original)

            def bochner_density(curve, *args, **kwargs):
                est = spanned(curve, *args, **kwargs)
                counts["bochner_terms"] += len(curve.times) * len(est.freqs)
                return est

            return bochner_density

        self._patch(schedule_mod.Schedule, "stage", wrap_stage)
        self._patch(schedule_mod.Schedule, "overlaps", wrap_overlaps)
        self._patch(schedule_mod, "overlap_pairs", wrap_overlap_pairs)
        for attr in ("cross_correlation", "product_integral"):
            self._patch(correlate_mod, attr, counted_span("stepfun.base", "base_calls"))
        for cls in ("Correlator", "MCorrelator"):
            owner = getattr(correlate_mod, cls, None)
            if owner is None:
                self.missing.append(f"rank1flow.correlate.{cls}")
                continue
            self._patch(owner, "at", counted_span("correlate.at", "at_calls"))
        self._patch(experiments_mod, "bochner_density", wrap_bochner)
        for attr in ("affinity", "dilate"):
            self._patch(experiments_mod, attr, lambda original: self._spanned("spectral.affinity", original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per op ------------------------------------------------------------

    def run_op(self, op):
        """Run ``op()`` (one ``run_experiment`` call) as the root span;
        return its result."""
        self.spans.clear()
        self.counts.clear()
        self.height_bits = 0
        idx = self._enter("experiments")
        try:
            return op()
        finally:
            self._exit(idx)

    def finish_op(self) -> dict:
        """Self seconds per span name and the counts of the op just run."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, start, end, _), covered in zip(self.spans, child):
            self_s[name] += (end - start) - covered
        root = self.spans[0]
        return {
            "op_s": root[2] - root[1],
            "self_s": self_s,
            "counts": dict(self.counts),
            "height_bits": self.height_bits,
        }
