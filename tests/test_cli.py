import json

import pytest
from click.testing import CliRunner

from rank1flow.cli import main
from rank1flow.experiments import KINDS


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
        ("stage-audit", {"schedule": "no-such-schedule.json"}),
        ("weak-limit", {"schedule": {"kind": "flat", "params": {"r": 2}}, "times": []}),
        ("weak-limit", {"schedule": {"kind": "flat", "params": {"r": 2}}, "times": ["1/2"], "family_size": 0}),
        ("triple-asymmetry", {"schedule": {"kind": "asym49", "params": {}}, "stage_count": 0}),
        ("triple-asymmetry", {"schedule": {"kind": "asym49", "params": {}}, "stage_count": 1, "forward_sets": 0}),
        ("triple-asymmetry", {"schedule": {"kind": "asym49", "params": {}}, "stage_count": 1, "set_levels": 0}),
        ("weak-limit", {"schedule": {"kind": "flat", "params": {"r": 2}}, "times": ["1/2"], "levels": 0}),
        ("reflection-check", {"schedule": {"kind": "flat", "params": {"r": 2}}, "cases": 0}),
    ],
    ids=[
        "unparsable-time",
        "infinite-time",
        "fock-claims-without-class-label",
        "non-numeric-param",
        "param-read-at-build-time",
        "named-without-kind",
        "stage-without-spacer",
        "missing-schedule-file",
        "no-times",
        "empty-family",
        "no-stages",
        "no-forward-sets",
        "no-set-levels",
        "no-levels",
        "no-reflection-cases",
    ],
)
def test_malformed_spec_fields_exit_two(tmp_path, kind, spec):
    result = invoke([kind, "--spec", write_spec(tmp_path, "bad.json", spec), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert "error:" in result.output
