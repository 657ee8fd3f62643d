import json
import re

import pytest

from rank1flow import (
    asym49_schedule,
    load_schedule,
    schedule_from_json,
    schedule_to_json,
    staircase34_schedule,
    symmetrize,
    thm44_schedule,
)
from rank1flow.errors import ConfigurationError
from rank1flow.scalars import scalar_to_string


def same_geometry(a, b, depth=5):
    for n in range(1, depth + 1):
        sa, sb = a.stage(n), b.stage(n)
        if (sa.r, sa.h, sa.w, sa.measure, sa.offsets) != (sb.r, sb.h, sb.w, sb.measure, sb.offsets):
            return False
    return True


def test_named_roundtrip_staircase():
    sched = staircase34_schedule(staircase_stages=(2, 3), base=4, r_cap=16)
    doc = schedule_to_json(sched)
    assert doc["named"]["kind"] == "staircase34"
    assert same_geometry(sched, schedule_from_json(doc))


def test_named_roundtrip_asym49():
    sched = asym49_schedule(r_cap=16)
    doc = schedule_to_json(sched)
    assert same_geometry(sched, schedule_from_json(doc))


def test_named_roundtrip_thm44():
    sched = thm44_schedule(s_values=(2,), q_max=1, k_max=1, r_cap=6)
    doc = schedule_to_json(sched)
    assert doc["named"]["kind"] == "thm44"
    assert same_geometry(sched, schedule_from_json(doc), depth=4)


def test_symmetrized_serializes_as_explicit_stages():
    sched = symmetrize(asym49_schedule(r_cap=16))
    doc = schedule_to_json(sched, depth=4)
    assert "stages" in doc and "named" not in doc
    assert same_geometry(sched, schedule_from_json(doc), depth=4)


def test_explicit_depth_roundtrip():
    sched = staircase34_schedule(staircase_stages=(2, 3), base=4, r_cap=16)
    doc = schedule_to_json(sched, depth=6)
    back = schedule_from_json(doc)
    assert same_geometry(sched, back, depth=6)


def test_all_spacer_variants_roundtrip():
    sched = thm44_schedule(s_values=(2,), q_max=2, k_max=1, r_cap=6)
    sched.stage(6)
    doc = schedule_to_json(sched, depth=6)
    text = json.dumps(doc)
    back = load_schedule(text)
    assert same_geometry(sched, back, depth=6)


def test_load_schedule_from_path(tmp_path):
    sched = asym49_schedule(r_cap=16)
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(schedule_to_json(sched)))
    assert same_geometry(sched, load_schedule(path))


def test_empty_document_rejected():
    with pytest.raises(ConfigurationError):
        schedule_from_json({})


def test_unknown_spacer_variant_rejected():
    doc = {"stages": [{"r": 2, "spacer": {"variant": "mystery"}}]}
    with pytest.raises(ConfigurationError):
        schedule_from_json(doc)


@pytest.mark.parametrize("field", ["h1", "w1", "mode"])
def test_named_document_rejects_top_level_geometry(field):
    doc = {"named": {"kind": "flat", "params": {"r": 3}}, field: "5" if field != "mode" else "float"}
    with pytest.raises(ConfigurationError, match=re.escape(f"['{field}']")):
        schedule_from_json(doc)


@pytest.mark.parametrize(
    "sched",
    [
        staircase34_schedule(staircase_stages=(2, 3), base=4, r_cap=16, h1=5, w1="1/3"),
        asym49_schedule(n_periods_growing_base=3, r_cap=16, h1="1/2", mode="sqrt2"),
        thm44_schedule(s_values=(2,), q_max=1, k_max=1, r_cap=6, m_first=True, h1="1+1*sqrt2"),
    ],
    ids=["staircase", "asym49", "thm44"],
)
def test_named_form_keeps_every_builder_argument(sched):
    doc = json.loads(json.dumps(schedule_to_json(sched)))
    assert "named" in doc
    assert same_geometry(sched, schedule_from_json(doc), depth=10)


@pytest.mark.parametrize(
    "named",
    [
        {"params": {"r": 3}},
        {"kind": ["flat"]},
        {"kind": "flat", "params": [3]},
        {"kind": "asym49", "params": {"r_cap": "x"}},
        {"kind": "thm44", "params": {"s_values": ["2"]}},
        {"kind": "flat", "params": {"mode": "exact"}},
        "flat",
    ],
)
def test_malformed_named_document_rejected(named):
    with pytest.raises(ConfigurationError):
        schedule_from_json({"named": named})


@pytest.mark.parametrize(
    "doc",
    [
        {"stages": [{"spacer": {"variant": "constant", "c": "0"}}]},
        {"stages": [{"r": 2, "spacer": {"variant": "constant", "c": 1}}]},
        {"stages": [{"r": 2, "spacer": {"variant": "constant", "c": "0"}}], "h1": "abc"},
        {"stages": [{"r": 2, "spacer": {"variant": "constant", "c": "0"}}], "mode": "exact"},
        ["stages"],
    ],
)
def test_malformed_stages_document_rejected(doc):
    with pytest.raises(ConfigurationError):
        schedule_from_json(doc)


def _stage(r, spacer, mode="rational"):
    return {"mode": mode, "stages": [{"r": r, "spacer": spacer}]}


@pytest.mark.parametrize(
    ("doc", "spacers", "bottom", "offsets"),
    [
        (
            _stage(3, {"variant": "explicit", "spacers": ["1/2", "0", "2"], "bottom": "1/3"}),
            ["1/2", "0", "2"],
            "1/3",
            ["1/3", "11/6", "17/6"],
        ),
        (_stage(3, {"variant": "constant", "c": "1/4"}), ["1/4"] * 3, "0", ["0", "5/4", "5/2"]),
        (
            _stage(3, {"variant": "constant", "c": "0+1*sqrt2"}, mode="sqrt2"),
            ["0+1*sqrt2"] * 3,
            "0",
            ["0", "1+1*sqrt2", "2+2*sqrt2"],
        ),
        (_stage(4, {"variant": "staircase", "u": "1/2"}), ["0", "1/2", "1", "3/2"], "0", ["0", "1", "5/2", "9/2"]),
        (
            _stage(5, {"variant": "fraction_split", "q": 2, "s": "3"}),
            ["0", "0", "0", "3", "3"],
            "0",
            ["0", "1", "2", "3", "7"],
        ),
        (
            _stage(4, {"variant": "paired_gaps", "gaps": ["1", "2"], "separators": ["5", "7"]}),
            ["1", "5", "2", "7"],
            "0",
            ["0", "2", "8", "11"],
        ),
        (
            _stage(5, {"variant": "symmetrized", "r_inner": 3, "inner": {"variant": "staircase", "u": "1"}}),
            ["1", "0", "0", "1", "2"],
            "2",
            ["2", "4", "5", "6", "8"],
        ),
        (
            _stage(
                7,
                {"variant": "symmetrized", "r_inner": 4, "inner": {"variant": "fraction_split", "q": 2, "s": "1/2"}},
            ),
            ["1/2", "0", "0", "0", "0", "1/2", "1/2"],
            "1/2",
            ["1/2", "2", "3", "4", "5", "6", "15/2"],
        ),
    ],
    ids=[
        "explicit-with-bottom",
        "constant",
        "constant-sqrt2",
        "staircase",
        "fraction_split",
        "paired_gaps",
        "symmetrized-staircase",
        "symmetrized-fraction_split",
    ],
)
def test_every_spacer_variant_builds_its_stage(doc, spacers, bottom, offsets):
    sched = schedule_from_json(doc)
    st = sched.stage(1)
    assert [scalar_to_string(v) for v in st.spacers] == spacers
    assert scalar_to_string(st.bottom) == bottom
    assert [scalar_to_string(o) for o in st.offsets] == offsets
    # the last entry repeats, on the next stage's height
    assert [scalar_to_string(v) for v in sched.stage(2).spacers] == spacers

