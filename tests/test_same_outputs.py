"""scripts/same_outputs.py on two tiny output trees."""

import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                      "same_outputs.py")


@pytest.fixture(scope="module")
def same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(top, files):
    for rel, text in files.items():
        path = top / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(top)


CSV_HEAD = "experiment,replicate,method,components,metric,value,status\n"


def test_compare_names_the_first_difference(tmp_path, same_outputs):
    summary = {"engine": "map", "per_beta": [{"beta": 0.0, "mean": -1.5},
                                             {"beta": 0.5, "mean": -1.25}]}
    changed = json.loads(json.dumps(summary))
    changed["per_beta"][1]["mean"] = -1.2500000000000002
    rows = CSV_HEAD + "x,0,a,1,err,0.25,ok\nx,1,a,1,err,0.5,ok\n"
    common = {"same/data.bin": "\x00\x01",
              "clock/manifest.json": json.dumps({"n": 2,
                                                 "wall_clock": [0.1]})}
    parent = _tree(tmp_path / "parent", dict(common, **{
        "a/summary.json": json.dumps(summary),
        "a/rows.csv": rows,
        "a/sample.bin": "\x00",
        "gone.json": "{}"}))
    change = _tree(tmp_path / "change", dict(common, **{
        "clock/manifest.json": json.dumps({"wall_clock": [0.7], "n": 2}),
        "a/summary.json": json.dumps(changed),
        "a/rows.csv": rows.replace("0.5,ok", "0.75,ok"),
        "a/sample.bin": "\x01",
        "new.json": "{}"}))
    identical, equal, problems = same_outputs.compare(parent, change)
    assert (identical, equal) == (1, 1)
    assert problems == [
        "only in parent: gone.json",
        "only in change: new.json",
        "differs: a/rows.csv: line 3, value: '0.5' != '0.75'",
        "differs: a/sample.bin",
        "differs: a/summary.json: per_beta[1].mean: -1.25 != "
        "-1.2500000000000002",
    ]


def test_first_difference_walks_keys_items_and_lengths(same_outputs):
    diff = same_outputs.first_difference
    assert diff({"a": [1, float("nan")]}, {"a": [1, float("nan")]}) is None
    assert diff({"a": 1}, {"a": 1, "b": 2}) == "b: only in change"
    assert diff({"a": [1, 2]}, {"a": [1]}) == "a: 2 items != 1"
    assert diff({"a": {"b": True}}, {"a": {"b": 1}}) == "a.b: True != 1"


def test_compare_of_a_tree_with_itself_reports_nothing(tmp_path,
                                                       same_outputs):
    top = _tree(tmp_path / "t", {"r.csv": CSV_HEAD + "x,0,a,1,err,1,ok\n",
                                 "s.json": json.dumps({"k": [1, 2]})})
    assert same_outputs.compare(top, top) == (2, 0, [])
