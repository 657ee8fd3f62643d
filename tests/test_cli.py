import json
import math
import re
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from rank1flow import Correlator, experiments
from rank1flow import schedule as schedule_module
from rank1flow.cli import main
from rank1flow.correlate import perturbation_bound
from rank1flow.errors import ConfigurationError, Rank1Error
from rank1flow.experiments import KINDS, run_experiment
from rank1flow.schedule import Schedule


def write_spec(tmp_path, name, spec):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def invoke(args):
    return CliRunner().invoke(main, args)


@pytest.fixture()
def audit_spec(tmp_path):
    return write_spec(
        tmp_path,
        "audit.json",
        {"schedule": {"kind": "flat", "params": {"r": 3}}, "depth": 6, "finiteness_horizon": 6},
    )


def test_all_subcommands_registered():
    assert set(KINDS) <= set(main.commands)


def test_stage_audit_pass(tmp_path, audit_spec):
    out = tmp_path / "out"
    result = invoke(["stage-audit", "--spec", audit_spec, "--out", str(out)])
    assert result.exit_code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["experiment"] == "stage-audit"
    assert (out / "plot.csv").exists()


def test_correlate_with_oracle(tmp_path):
    spec = write_spec(
        tmp_path,
        "corr.json",
        {
            "schedule": {"kind": "flat", "params": {"r": 2}},
            "times": ["0", "1/2", "-3/4"],
            "oracle": True,
            "seed": 1,
        },
    )
    out = tmp_path / "out"
    result = invoke(["correlate", "--spec", spec, "--out", str(out)])
    assert result.exit_code == 0
    report = json.loads((out / "report.json").read_text())
    assert all(item["ok"] for item in report["result"]["items"])


def test_float_time_on_a_sqrt2_schedule(tmp_path):
    # "2.5" parses as a float; it runs at its exact binary value, 5/2
    spec = write_spec(
        tmp_path,
        "corr.json",
        {
            "schedule": {"kind": "thm44", "params": {"s_values": [2], "q_max": 1, "k_max": 1, "r_cap": 6}},
            "times": ["2.5", "5/2"],
            "oracle": True,
        },
    )
    out = tmp_path / "out"
    result = invoke(["correlate", "--spec", spec, "--out", str(out)])
    assert result.exit_code in (0, 1), result.output
    items = json.loads((out / "report.json").read_text())["result"]["items"]
    assert [it["t"] for it in items] == ["2.5", "5/2"]
    assert items[0]["value"] == items[1]["value"]


def test_missing_spec_file_is_usage_error(tmp_path):
    result = invoke(["stage-audit", "--spec", str(tmp_path / "nope.json")])
    assert result.exit_code == 2


def test_malformed_spec_exits_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    result = invoke(["stage-audit", "--spec", str(path)])
    assert result.exit_code == 2


DEEP = "[" * 100_000 + "]" * 100_000  # past the parser's recursion limit


@pytest.mark.parametrize("name", ["not-utf8", "deeply-nested", "deeply-nested-schedule-file"])
def test_unreadable_spec_bytes_exit_two(tmp_path, name):
    path = tmp_path / "bad.json"
    if name == "not-utf8":
        path.write_bytes(b'{"schedule": "\xff"}')
    elif name == "deeply-nested":
        path.write_text(DEEP)
    else:
        (tmp_path / "schedule.json").write_text(DEEP)
        path.write_text(json.dumps({"schedule": str(tmp_path / "schedule.json"), "times": ["1/2"]}))
    result = invoke(["correlate", "--spec", str(path)])
    assert result.exit_code == 2, result.output
    assert "error: " in result.output and "Traceback" not in result.output


def test_bad_schedule_kind_exits_two(tmp_path):
    spec = write_spec(tmp_path, "bad.json", {"schedule": {"kind": "mystery"}})
    result = invoke(["stage-audit", "--spec", spec])
    assert result.exit_code == 2


def test_threshold_failure_exits_one(tmp_path):
    # a weak limit that certainly does not hold: flat(2) at t=1/2
    # against the identity with a tiny threshold
    spec = write_spec(
        tmp_path,
        "fail.json",
        {
            "schedule": {"kind": "flat", "params": {"r": 2}},
            "times": ["1/2"],
            "target": {"alpha": 1.0},
            "threshold": 1e-12,
            "seed": 0,
        },
    )
    result = invoke(["weak-limit", "--spec", spec, "--out", str(tmp_path / "o")])
    assert result.exit_code == 1


def test_reports_do_not_embed_wall_clock(tmp_path, audit_spec):
    out = tmp_path / "o"
    invoke(["stage-audit", "--spec", audit_spec, "--out", str(out)])
    text = (out / "report.json").read_text()
    assert "elapsed" not in text and "wall" not in text


def test_reruns_are_byte_identical(tmp_path, audit_spec):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        result = invoke(["stage-audit", "--spec", audit_spec, "--out", str(out)])
        assert result.exit_code == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "plot.csv").read_bytes() == (out2 / "plot.csv").read_bytes()


def test_plot_csv_has_header_comment(tmp_path, audit_spec):
    out = tmp_path / "o"
    invoke(["stage-audit", "--spec", audit_spec, "--out", str(out)])
    first = (out / "plot.csv").read_text().splitlines()[0]
    assert first.startswith("# experiment: stage-audit")


FLAT2 = {"kind": "flat", "params": {"r": 2}}
CONSTANT = {"variant": "constant", "c": "1"}
ONE_SHIFT = {"schedule": {"kind": "thm44", "params": {}}, "class_label": "M[l0=1;2]", "shifts": ["2"]}
SMALL_THM44 = {"kind": "thm44", "params": {"s_values": [2], "q_max": 1, "k_max": 1, "r_cap": 6}}

# entries nothing reads, mistyped booleans and integers, and malformed
# "stages" documents (each ran with exit 0 or 1 before these checks),
# with the entry the error message must name
UNREAD_OR_MISTYPED = {
    "misspelt-spec-entry": ("stage-audit", {"schedule": FLAT2, "dpeth": 2}, "['dpeth']"),
    "misspelt-target-entry": (
        "weak-limit",
        {"schedule": FLAT2, "times": ["1"], "target": {"alpha": 0, "bta": 1}},
        "['bta']",
    ),
    "misspelt-time-spec-entry": (
        "weak-limit",
        {"schedule": FLAT2, "times": {"kind": "heights", "stages": [2], "dd": "1"}},
        "['dd']",
    ),
    "misspelt-analytic-entry": ("spectrum", {"analytic": {"kind": "gaussian", "width": 2}}, "['width']"),
    "string-boolean": ("weak-limit", {"schedule": FLAT2, "times": ["1"], "mean_zero": "false"}, "'mean_zero'"),
    "string-symmetrize": ("stage-audit", {"schedule": FLAT2, "symmetrize": "no"}, "'symmetrize'"),
    "fractional-depth": ("stage-audit", {"schedule": FLAT2, "depth": 2.9}, "'depth'"),
    "stages-top-level-key": (
        "stage-audit",
        {"schedule": {"stages": [{"r": 2, "spacer": CONSTANT}], "hl": "2"}},
        "['hl']",
    ),
    "stages-entry-bottom": (
        "stage-audit",
        {"schedule": {"stages": [{"r": 2, "spacer": CONSTANT, "bottom": "5"}]}},
        "stages[0] has unknown or unused entries ['bottom']",
    ),
    "constant-spacer-bottom": (
        "stage-audit",
        {"schedule": {"stages": [{"r": 2, "spacer": {**CONSTANT, "bottom": "5"}}]}},
        "stages[0].spacer has unknown or unused entries ['bottom']",
    ),
    "fraction-split-negative-q": (
        "stage-audit",
        {"schedule": {"stages": [{"r": 4, "spacer": {"variant": "fraction_split", "q": -2, "s": "1"}}]}},
        "'q'",
    ),
    "fractional-r": ("stage-audit", {"schedule": {"stages": [{"r": 2.7, "spacer": CONSTANT}]}}, "'r'"),
    "boolean-threshold": ("weak-limit", {"schedule": FLAT2, "times": ["1"], "threshold": True}, "'threshold'"),
    "boolean-t-max": ("spectrum", {"analytic": {"kind": "gaussian"}, "t_max": True}, "'t_max'"),
    "string-threshold": ("disjointness", {"analytic": {"kind": "gaussian"}, "threshold": "0.5"}, "'threshold'"),
    "string-lam": ("spectrum", {"analytic": {"kind": "gaussian"}, "lam": "4"}, "'lam'"),
    "string-alpha": ("weak-limit", {"schedule": FLAT2, "times": ["1"], "target": {"alpha": "0.5"}}, "'alpha'"),
    "boolean-dilation": ("disjointness", {"analytic": {"kind": "gaussian"}, "dilations": [True]}, "'dilations'"),
    "analytic-string-dt": ("spectrum", {"analytic": {"kind": "gaussian"}, "dt": "0.05"}, "'dt'"),
    "analytic-zero-dt": ("spectrum", {"analytic": {"kind": "gaussian"}, "dt": 0}, "'dt'"),
    "negative-t-max": ("spectrum", {"analytic": {"kind": "gaussian"}, "t_max": -1}, "'t_max'"),
    "infinite-t-max": ("disjointness", {"analytic": {"kind": "gaussian"}, "t_max": math.inf}, "'t_max'"),
    "zero-grid-size": ("spectrum", {"analytic": {"kind": "gaussian"}, "grid_size": 0}, "'grid_size'"),
    "negative-grid-size": ("disjointness", {"analytic": {"kind": "gaussian"}, "grid_size": -1}, "'grid_size'"),
    "zero-depth": ("stage-audit", {"schedule": FLAT2, "depth": 0}, "'depth'"),
    "empty-dilations": ("disjointness", {"analytic": {"kind": "gaussian"}, "dilations": []}, "'dilations'"),
    "empty-shifts": (
        "fock-claims",
        {"schedule": {"kind": "thm44", "params": {}}, "class_label": "M[l0=1;2]", "shifts": []},
        "'shifts'",
    ),
    "empty-cosine-freqs": ("spectrum", {"analytic": {"kind": "cosine", "freqs": []}}, "'freqs'"),
    "zero-l0": ("fock-claims", {**ONE_SHIFT, "l0": 0}, "'l0' = 0"),
    "l0-past-the-shifts": ("fock-claims", {**ONE_SHIFT, "l0": 2}, "'l0' = 2"),
    "negative-pairs": ("fock-claims", {**ONE_SHIFT, "pairs": -1}, "'pairs' = -1"),
    "doubled-sqrt2-time": (
        "correlate",
        {"schedule": SMALL_THM44, "times": ["1+2*sqrt2*sqrt2"]},
        "'1+2*sqrt2*sqrt2' is not of the form a+b*sqrt2",
    ),
    "glued-sqrt2-time": ("correlate", {"schedule": SMALL_THM44, "times": ["1+*sqrt22"]}, "'1+*sqrt22' is not of the form"),
    "three-part-alpha": (
        "weak-limit",
        {"schedule": FLAT2, "times": ["1"], "target": {"alpha": [0, 0, 7]}},
        "'alpha' = [0, 0, 7]: expected a number or [re, im]",
    ),
    "one-part-beta": (
        "weak-limit",
        {"schedule": FLAT2, "times": ["1"], "target": {"beta": [0]}},
        "'beta' = [0]: expected a number or [re, im]",
    ),
}


@pytest.mark.parametrize(
    "kind, spec",
    [
        ("correlate", {"schedule": {"kind": "flat", "params": {"r": 2}}, "times": ["abc"]}),
        ("correlate", {"schedule": {"kind": "flat", "params": {"r": 2}}, "times": ["inf"]}),
        ("fock-claims", {"schedule": {"kind": "thm44", "params": {}}, "shifts": ["2"]}),
        ("stage-audit", {"schedule": {"kind": "flat", "params": {"r": "x"}}}),
        ("stage-audit", {"schedule": {"kind": "asym49", "params": {"r_cap": "x"}}, "depth": 4}),
        ("stage-audit", {"schedule": {"named": {"params": {}}}}),
        ("stage-audit", {"schedule": {"stages": [{"r": 2}]}}),
        ("stage-audit", {"schedule": {"stages": [{"r": 3, "spacer": {"variant": "explicit", "spacers": ["0"]}}]}}),
        (
            "stage-audit",
            {"schedule": {"stages": [{"r": 4, "spacer": {"variant": "paired_gaps", "gaps": ["1"], "separators": []}}]}},
        ),
        (
            "stage-audit",
            {
                "schedule": {
                    "stages": [{"r": 4, "spacer": {"variant": "symmetrized", "r_inner": 2, "inner": {"variant": "staircase", "u": "1"}}}]
                }
            },
        ),
        (
            "stage-audit",
            {
                "schedule": {
                    "stages": [
                        {"r": 3, "spacer": {"variant": "symmetrized", "r_inner": 2, "inner": {"variant": "explicit", "spacers": ["0"]}}}
                    ]
                }
            },
        ),
        ("stage-audit", {"schedule": "no-such-schedule.json"}),
        ("weak-limit", {"schedule": {"kind": "flat", "params": {"r": 2}}, "times": []}),
        ("weak-limit", {"schedule": {"kind": "flat", "params": {"r": 2}}, "times": ["1/2"], "family_size": 0}),
        ("triple-asymmetry", {"schedule": {"kind": "asym49", "params": {}}, "stage_count": 0}),
        ("triple-asymmetry", {"schedule": {"kind": "asym49", "params": {}}, "stage_count": 1, "forward_sets": 0}),
        ("triple-asymmetry", {"schedule": {"kind": "asym49", "params": {}}, "stage_count": 1, "set_levels": 0}),
        ("triple-asymmetry", {"schedule": {"kind": "asym49", "params": {}}, "stage_count": 1, "backward_period_max": 1}),
        (
            "triple-asymmetry",
            {"schedule": {"kind": "flat", "params": {"r": 2, "h1": "1/4"}}, "stage_count": 1, "set_stage": 1},
        ),
        ("spectrum", {"schedule": FLAT2, "analytic": {"kind": "gaussian"}}),
        ("spectrum", {"schedule": {}, "analytic": {"kind": "gaussian"}}),
        ("disjointness", {"schedule": FLAT2, "analytic": False}),
        ("spectrum", {"t_max": 4.0}),
        ("disjointness", {}),
        ("weak-limit", {"schedule": {"kind": "flat", "params": {"r": 2}}, "times": ["1/2"], "levels": 0}),
        ("reflection-check", {"schedule": {"kind": "flat", "params": {"r": 2}}, "cases": 0}),
        ("weak-limit", {"schedule": {"kind": "flat", "params": {"r": 2}}, "times": ["1"], "target": {"alpha": "nan"}}),
        ("weak-limit", {"schedule": {"kind": "flat", "params": {"r": 2}}, "times": ["1"], "target": {"beta": "inf"}}),
        ("weak-limit", {"schedule": {"kind": "flat", "params": {"r": 2}}, "times": ["1"], "threshold": "nan"}),
        ("weak-limit", {"schedule": {"kind": "flat", "params": {"r": 2}}, "times": ["3"], "stage": 99}),
        *((kind, spec) for kind, spec, _ in UNREAD_OR_MISTYPED.values()),
    ],
    ids=[
        "unparsable-time",
        "infinite-time",
        "fock-claims-without-class-label",
        "non-numeric-param",
        "param-read-at-build-time",
        "named-without-kind",
        "stage-without-spacer",
        "spacer-list-too-short",
        "paired-gaps-without-a-separator",
        "symmetrized-r-mismatch",
        "symmetrized-inner-too-short",
        "missing-schedule-file",
        "no-times",
        "empty-family",
        "no-stages",
        "no-forward-sets",
        "no-set-levels",
        "no-backward-period",
        "no-comb-under-the-set-stage",
        "schedule-and-analytic",
        "empty-schedule-beside-analytic",
        "false-analytic-beside-schedule",
        "spectrum-without-a-curve",
        "disjointness-without-a-curve",
        "no-levels",
        "no-reflection-cases",
        "nan-alpha",
        "infinite-beta",
        "nan-threshold",
        "family-stage-past-max-stage",
        *UNREAD_OR_MISTYPED,
    ],
)
def test_malformed_spec_fields_exit_two(tmp_path, kind, spec):
    result = invoke([kind, "--spec", write_spec(tmp_path, "bad.json", spec), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert "error:" in result.output


def test_a_family_stage_past_max_stage_is_named(tmp_path):
    """The fault is the functions' stage, not the time."""
    spec = {"schedule": {"kind": "flat", "params": {"r": 2}}, "times": ["3"], "stage": 99}
    result = invoke(["weak-limit", "--spec", write_spec(tmp_path, "deep.json", spec), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "the functions' stage 99 is past MAX_STAGE = 64" in result.output
    assert "|t|" not in result.output


def test_an_eval_depth_past_max_stage_exits_two(tmp_path):
    """reflection-check evaluates at a given stage, bounded as a picked one is."""
    spec = {"schedule": {"kind": "flat", "params": {"r": 2}}, "cases": 1, "eval_depth": 2000}
    result = invoke(["reflection-check", "--spec", write_spec(tmp_path, "deep.json", spec), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert re.search(r"error: stage \d+ is past MAX_STAGE = 64", result.output)


HUGE = "1" + "0" * 400  # past float range
PAST_FLOAT_RANGE = {
    "time": ("correlate", {"schedule": {"kind": "flat", "params": {"r": 2}}, "times": [HUGE]}, f"|t| = {HUGE}"),
    "audit-height": ("stage-audit", {"schedule": {"kind": "flat", "params": {"r": 2}}, "depth": 1100}, "h_1025 = "),
    "support": (
        "correlate",
        {
            "schedule": {"h1": HUGE, "stages": [{"r": 2, "spacer": {"variant": "constant", "c": "0"}}]},
            "times": {"kind": "heights", "stages": [1]},
        },
        f"the support length of a stage-1 function = {HUGE}",
    ),
    "width": (
        "correlate",
        {"schedule": {"w1": HUGE, "stages": [{"r": 2, "spacer": {"variant": "constant", "c": "0"}}]}, "times": ["1/2"]},
        "w_",
    ),
}


@pytest.mark.parametrize("name", list(PAST_FLOAT_RANGE))
def test_a_value_past_float_range_exits_two_and_is_named(tmp_path, name):
    kind, spec, named = PAST_FLOAT_RANGE[name]
    result = invoke([kind, "--spec", write_spec(tmp_path, "huge.json", spec), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert f"error: {named}" in result.output and "is past float range" in result.output


@pytest.mark.parametrize(
    "time, named",
    [
        ("0+100000000000000000000*sqrt2", "|t| = 1.41421e+20 out of range: no stage up to 64 is tall enough"),
        (f"0+{HUGE}*sqrt2", f"|t| = 0+{HUGE}*sqrt2 is past float range"),
    ],
    ids=["past-max-stage", "past-float-range"],
)
def test_a_sqrt2_time_out_of_range_exits_two_and_is_named(tmp_path, time, named):
    """A Q(sqrt 2) time read off its lattice coordinates is named as its scalar."""
    spec = {"schedule": {"kind": "flat", "params": {"r": 2}}, "times": ["1/2", time]}
    result = invoke(["correlate", "--spec", write_spec(tmp_path, "far.json", spec), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert f"error: {named}\n" in result.output


# curve entries past float range, or past memory, each before any sample
# time is built: t_max/dt on both curve kinds, a cosine phase, a grid
OUT_OF_RANGE_CURVES = {
    "ratio-analytic": ({"analytic": {"kind": "gaussian"}, "dt": 1e-300, "t_max": 1e300}, "spec entries 't_max' = 1e+300 and 'dt' = 1e-300"),
    "ratio-schedule": ({"schedule": FLAT2, "dt": 1e-300, "t_max": 1e300}, "spec entries 't_max' = 1e+300 and 'dt' = 1e-300"),
    "cosine-phase": ({"analytic": {"kind": "cosine", "freqs": [1e308]}, "dt": 0.05, "t_max": 8}, "spec entry 'freqs' = [1e+308]"),
    "grid-size": ({"analytic": {"kind": "gaussian"}, "grid_size": 10000000000000}, "Unable to allocate"),
    # an exact dt whose float is 0.0, or past the largest float
    "dt-below-float": ({"schedule": FLAT2, "dt": "1e-400", "t_max": 8}, "spec entry 'dt' rounds to 0.0: t_max/dt with 't_max' = 8.0"),
    "dt-past-float": ({"schedule": FLAT2, "dt": "1e400", "t_max": 8}, "spec entry 'dt' is past float range"),
    # a taper whose 2 width^2 underflows to 0, a frequency grid past float range
    "taper-1e-300": ({"schedule": FLAT2, "taper_width": 1e-300}, "spec entry 'taper_width' = 1e-300"),
    "taper-1e-200": ({"analytic": {"kind": "gaussian"}, "taper_width": 1e-200}, "spec entry 'taper_width' = 1e-200"),
    "lam-1e308": ({"schedule": FLAT2, "lam": 1e308}, "spec entry 'lam' = 1e+308"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec, named", OUT_OF_RANGE_CURVES.values(), ids=list(OUT_OF_RANGE_CURVES))
def test_a_curve_past_float_range_or_memory_exits_two(tmp_path, spec, named):
    for kind in ("spectrum", "disjointness"):
        result = invoke([kind, "--spec", write_spec(tmp_path, "curve.json", spec), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert f"error: {named}" in result.output and "Traceback" not in result.output


# dilations whose grid leaves float range, or whose estimate falls
# between the points of the grid it shares with the undilated one
OUT_OF_RANGE_DILATIONS = {
    "1e-308": "dilation factor 1e-308 puts the estimate's grid or density past float range",
    "1e-300": "affinity of an estimate with no mass on the common grid of 1602 points over [-4e+300, 4e+300]",
    "1e308": "affinity of an estimate with no mass on the common grid of 1602 points over [-4, 4]",
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dilation, named", OUT_OF_RANGE_DILATIONS.items(), ids=list(OUT_OF_RANGE_DILATIONS))
def test_a_dilation_past_float_range_exits_two_and_writes_no_report(tmp_path, dilation, named):
    for curve in ({"schedule": FLAT2}, {"analytic": {"kind": "gaussian"}}):
        spec = {**curve, "dilations": [float(dilation)]}
        out = tmp_path / "o"
        result = invoke(["disjointness", "--spec", write_spec(tmp_path, "curve.json", spec), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"error: {named}\n" in result.output and "Traceback" not in result.output
        assert not out.exists()


# t_max = 8 and dt = 1/20 on both curve kinds: 161 sample times from 0
GUARDED_CURVES = {
    "analytic": {"analytic": {"kind": "gaussian"}, "dt": 0.05, "t_max": 8},
    "schedule": {"schedule": FLAT2, "dt": "0.05", "t_max": 8},
}


@pytest.mark.parametrize("spec", GUARDED_CURVES.values(), ids=list(GUARDED_CURVES))
def test_a_curve_past_the_guard_exits_two_before_sampling(monkeypatch, tmp_path, spec):
    """GUARD bounds a curve's sample times from 0 (the memo keys of one
    query on a schedule curve): one past it, the spec exits 2 when it is
    read, before the times are built or the curve sampled."""

    def no_sample(*args, **kwargs):
        raise AssertionError("the curve was sampled")

    monkeypatch.setattr(experiments, "autocorr_curve", no_sample)
    monkeypatch.setattr(experiments, "curve_from_samples", no_sample)
    monkeypatch.setattr(schedule_module, "GUARD", 160)
    result = invoke(["spectrum", "--spec", write_spec(tmp_path, "curve.json", spec), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert "error: sample blowup: spec entries 't_max' = 8.0 and 'dt' = 0.05 give 161 sample times from 0, more than GUARD = 160" in result.output


# curves whose t_max rounds to no sample time but 0 (t_max = dt/2 rounds
# half to even, to 0), for both kinds and both branches of the curve
NO_TIME_BUT_ZERO = {
    "spectrum-analytic": ("spectrum", {"analytic": {"kind": "gaussian"}, "t_max": 0.02}),
    "disjointness-analytic": ("disjointness", {"analytic": {"kind": "cosine", "freqs": [1.0]}, "t_max": 0.025}),
    "spectrum-schedule": ("spectrum", {"schedule": FLAT2, "t_max": 0.02}),
    "disjointness-schedule": ("disjointness", {"schedule": FLAT2, "t_max": 0.125, "dt": "0.25"}),
}


@pytest.mark.parametrize("kind, spec", NO_TIME_BUT_ZERO.values(), ids=list(NO_TIME_BUT_ZERO))
def test_curve_without_a_nonzero_time_exits_two_before_sampling(monkeypatch, tmp_path, kind, spec):
    def no_sample(*args, **kwargs):
        raise AssertionError("the curve was sampled")

    monkeypatch.setattr(experiments, "autocorr_curve", no_sample)
    monkeypatch.setattr(experiments, "curve_from_samples", no_sample)
    result = invoke([kind, "--spec", write_spec(tmp_path, "short.json", spec), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert "error: spec entry 't_max' =" in result.output and "must exceed half of 'dt' =" in result.output


@pytest.mark.parametrize("kind, spec, named", UNREAD_OR_MISTYPED.values(), ids=list(UNREAD_OR_MISTYPED))
def test_unread_or_mistyped_entry_is_named(kind, spec, named):
    with pytest.raises(ConfigurationError, match=re.escape(named)):
        run_experiment(kind, spec)


# a valid spec of each kind whose run builds stages past 2 or estimates a
# spectrum; only reading the spec stays within stage 2
SHALLOW_READ = {
    "stage-audit": {"schedule": FLAT2},
    "correlate": {"schedule": FLAT2, "times": {"kind": "heights", "stages": [4]}},
    "weak-limit": {"schedule": FLAT2, "times": {"kind": "heights", "stages": [4]}},
    "triple-asymmetry": {"schedule": {"kind": "asym49", "params": {}}, "stage_count": 2},
    "fock-claims": {
        "schedule": {"kind": "thm44", "params": {"s_values": [2], "q_max": 2, "k_max": 1}},
        "class_label": "M[l0=1;2]",
        "shifts": ["2"],
    },
    "spectrum": {"analytic": {"kind": "gaussian"}},
    "disjointness": {"analytic": {"kind": "cosine", "freqs": [1.0]}},
    "reflection-check": {"schedule": FLAT2},
}


@pytest.mark.parametrize("kind", KINDS)
def test_unread_entry_is_named_before_the_run(monkeypatch, kind):
    build = Schedule.stage

    def shallow_stage(schedule, n):
        assert n <= 2, "the run started before the spec was checked"
        return build(schedule, n)

    def no_estimate(*args, **kwargs):
        raise AssertionError("the run started before the spec was checked")

    monkeypatch.setattr(Schedule, "stage", shallow_stage)
    monkeypatch.setattr(experiments, "bochner_density", no_estimate)
    with pytest.raises(ConfigurationError, match=re.escape("spec has unknown or unused entries ['bogus']")):
        run_experiment(kind, {**SHALLOW_READ[kind], "bogus": 1})


def test_off_scale_threshold_is_read_when_the_residual_check_fails():
    spec = {
        **SHALLOW_READ["fock-claims"],
        "build_to": 6,
        "stage": 2,
        "levels": 5,
        "family_size": 1,
        "threshold": 0,
        "off_scale": "3",
        "off_scale_threshold": 0.05,
    }
    report = run_experiment("fock-claims", spec)
    assert report["passed"] is False
    assert report["result"]["final_max_factor_residual"] >= 0
    assert report["result"]["off_scale"]["b"] == "3"


# the spec of acceptance criterion 5: one shift, two class times
CRITERION_5 = {
    **SHALLOW_READ["fock-claims"],
    "build_to": 10,
    "l0": 1,
    "stage": 2,
    "levels": 5,
    "seed": 0,
    "family_size": 1,
    "threshold": 0.1,
    "off_scale": "3",
    "off_scale_threshold": 0.05,
}


def test_fock_claims_queries_each_factor_once_per_class_time(monkeypatch):
    """One query per factor and class time, one per off-scale probe, and
    one for the l0 reference."""
    calls = []
    query = Correlator.at

    def spy(self, times, stage=None):
        calls.extend(times)
        return query(self, times, stage)

    monkeypatch.setattr(Correlator, "at", spy)
    items = run_experiment("fock-claims", CRITERION_5)["result"]["items"]
    assert len(items) == 2
    assert len(calls) == (len(CRITERION_5["shifts"]) + 1) * len(items) + 1


def test_a_repeated_factor_is_repeated_in_the_component_and_its_bound():
    items = run_experiment("fock-claims", {**CRITERION_5, "multiplicities": [2]})["result"]["items"]
    for item in items:
        (factor,) = item["factors"]
        value, bound = complex(*factor["value"]), factor["error_bound"]
        component = item["component"]
        assert complex(*component["value"]) == value**2
        assert component["error_bound"] == perturbation_bound([abs(value)] * 2, [bound] * 2)
        assert component["stage_used"] == factor["stage_used"]


@pytest.mark.parametrize(
    "schedule",
    [{"kind": "flat", "r": 3}, {"named": {"kind": "flat", "r": 3}}],
    ids=["kind-form", "named-form"],
)
def test_unknown_schedule_key_exits_two_naming_it(tmp_path, schedule):
    result = invoke(["stage-audit", "--spec", write_spec(tmp_path, "bad.json", {"schedule": schedule})])
    assert result.exit_code == 2
    assert "named schedule (its builder's parameters, h1, w1 and mode go in 'params') has unknown" in result.output
    assert "['r']" in result.output


def test_readme_cli_example_runs_as_written(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    spec = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    out = tmp_path / "out"
    result = invoke(["stage-audit", "--spec", write_spec(tmp_path, "audit.json", spec), "--out", str(out)])
    assert result.exit_code == 0, result.output
    items = json.loads((out / "report.json").read_text())["result"]["items"]
    assert len(items) == spec["depth"]
    assert max(item["r"] for item in items) <= spec["schedule"]["params"]["r_cap"]


def test_a_decimal_height_multiple_on_a_sqrt2_schedule(tmp_path):
    """A decimal d meets the Q(sqrt 2) stage height at its exact binary
    value: 0.5 * h_5 runs as (1/2) h_5 does.  The loose threshold makes the
    verdict pass, so that exit 0 tells the run apart from a crash."""
    spec = {
        "schedule": {"kind": "thm44", "params": {}},
        "times": {"kind": "heights", "stages": [5], "d": "0.5"},
        "threshold": 1,
    }
    out = tmp_path / "out"
    result = invoke(["weak-limit", "--spec", write_spec(tmp_path, "w.json", spec), "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert [it["t"] for it in report["result"]["items"]] == ["300+720*sqrt2"]
    halved = run_experiment("weak-limit", {**spec, "times": {**spec["times"], "d": "1/2"}})
    assert report["result"] == halved["result"]


def test_a_decimal_shift_is_ordered_against_a_sqrt2_shift():
    """FockComponent checks 1.5 < 2 sqrt 2 at the decimal's exact value."""
    report = run_experiment("fock-claims", {**CRITERION_5, "shifts": ["1.5", "0+2*sqrt2"]})
    assert isinstance(report["passed"], bool)
    items = report["result"]["items"]
    assert len(items) == 2 and all([fc["s"] for fc in it["factors"]] == ["1.5", "0+2*sqrt2"] for it in items)


# each scalar spec entry, and a builder's h1, on flat and shallow thm44
SHALLOW_THM44 = {"kind": "thm44", "params": {"s_values": [2], "q_max": 2, "k_max": 1}}
SHALLOW_FOCK = {"class_label": "M[l0=1;2]", "build_to": 6, "stage": 2, "levels": 5, "family_size": 1}
SCALAR_ENTRIES = {
    "times": lambda schedule, s: ("correlate", {"schedule": schedule, "times": [s]}),
    "heights-d": lambda schedule, s: (
        "weak-limit",
        {"schedule": schedule, "times": {"kind": "heights", "stages": [3], "d": s}},
    ),
    "target-s": lambda schedule, s: ("weak-limit", {"schedule": schedule, "times": ["1"], "target": {"beta": 1, "s": s}}),
    "shifts": lambda schedule, s: ("fock-claims", {"schedule": schedule, **SHALLOW_FOCK, "shifts": [s, "0+2*sqrt2"]}),
    "off_scale": lambda schedule, s: (
        "fock-claims",
        {"schedule": schedule, **SHALLOW_FOCK, "shifts": ["2"], "off_scale": s},
    ),
    "h1": lambda schedule, s: (
        "stage-audit",
        {"schedule": {**schedule, "params": {**schedule["params"], "h1": s}}, "depth": 3},
    ),
}
small_fractions = st.fractions(min_value=-12, max_value=12, max_denominator=12)
scalar_strings = st.one_of(
    st.integers(min_value=-12, max_value=12).map(str),
    small_fractions.map(str),
    st.floats(min_value=-12, max_value=12).map(repr),
    st.tuples(small_fractions, small_fractions).map(lambda ab: f"{ab[0]}+{ab[1]}*sqrt2"),
    st.sampled_from(["inf", "-inf", "nan"]),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SCALAR_ENTRIES)), st.sampled_from([FLAT2, SHALLOW_THM44]), scalar_strings)
def test_generated_scalars_keep_the_exit_contract(entry, schedule, text):
    """A scalar in any spec entry gives a report (exit 0 or 1) or a
    Rank1Error (exit 2), never another exception."""
    kind, spec = SCALAR_ENTRIES[entry](schedule, text)
    try:
        report = run_experiment(kind, spec)
    except Rank1Error:
        return
    assert isinstance(report["passed"], bool)
