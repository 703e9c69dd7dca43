import contextlib
import copy
import hashlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bellkit
from bellkit import cli
from bellkit.harness import AnalysisConfig, CountDataset, CountRow, render_report, run_analysis

CONFIG_TEXT = """
[pdc]
v = 0.95
eta = 0.1
r0 = 1.0

[cascade]
theta = 0.5
zeta = 0.2

[analysis]
n_pairs = 20000
"""


@pytest.fixture
def files(tmp_path, rng):
    from conftest import random_model, save_model

    config = tmp_path / "cfg.ini"
    config.write_text(CONFIG_TEXT)
    model = tmp_path / "model.json"
    save_model(random_model(rng), model)
    return {"config": str(config), "model": str(model), "dir": tmp_path}


def session(files):
    """Every subcommand, a usage error and an input error, interleaved."""
    d = files["dir"]
    counts, report = str(d / "counts.csv"), str(d / "report.json")
    return [
        ["simulate", "--config", files["config"], "--seed", "7", "--output", counts],
        ["analyze", counts, "--output", report],
        ["search", "--eta", "0.8"],
        ["report", report],
        ["analyze", counts, "--format", "text"],
        ["validate", files["model"]],
        ["analyze", "--format", "xml", counts],
        ["predict", "--config", files["config"]],
        ["report", report, "--format", "json"],
        ["analyze", str(d / "missing.csv")],
        ["analyze", counts],
        ["report", report],
    ]


def run(argv, capsys):
    """Exit code, stdout and stderr of one main() call, timestamps blanked."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out, err = capsys.readouterr()
    return code, re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', out), err


def test_cached_parser_matches_a_fresh_parser_per_call(files, capsys, monkeypatch):
    cached = [run(argv, capsys) for argv in session(files)]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run(argv, capsys) for argv in session(files)]
    assert cached == fresh
    codes = [code for code, _, _ in cached]
    assert codes.count(0) == 10
    assert ("SystemExit", 2) in codes and 1 in codes


def test_subcommand_defaults_do_not_leak(files, capsys):
    d = files["dir"]
    counts, report = str(d / "counts.csv"), str(d / "report.json")
    simulate = ["simulate", "--config", files["config"], "--seed", "3", "--output", counts]
    assert cli.main(simulate) == 0
    assert cli.main(["analyze", counts, "--format", "text"]) == 0
    assert capsys.readouterr().out.startswith("coincidence analysis")
    assert cli.main(["analyze", counts, "--output", report]) == 0
    assert json.loads(Path(report).read_text())["s_star"] > 2.0
    assert cli.main(["report", report, "--format", "json"]) == 0
    capsys.readouterr()
    assert cli.main(["report", report]) == 0
    assert capsys.readouterr().out.startswith("coincidence analysis")
    assert cli.main(["analyze", counts]) == 0
    assert json.loads(capsys.readouterr().out)["s_star"] > 2.0


def test_parser_is_built_once_per_process(files, capsys, monkeypatch):
    calls = []
    build = cli.build_parser

    def counting_build():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    try:
        for argv in session(files):
            run(argv, capsys)
        assert len(calls) == 1
    finally:
        cli._parser.cache_clear()


def test_import_builds_no_parser():
    src = str(Path(bellkit.__file__).resolve().parent.parent)
    code = "import bellkit.cli as c; print(c._parser.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_predict_output_bytes_are_pinned(files, capsys):
    # the sha256 of the output as it stands; a change meant to keep every
    # output byte keeps it, one that alters the predictions re-pins it
    assert cli.main(["predict", "--config", files["config"]]) == 0
    out = capsys.readouterr().out
    assert sorted(json.loads(out)) == ["cascade", "pdc"]
    digest = "40729e5aa077eca9bf0b74de4b2fffc7fcabad36029650eb72190ad5c26fa42d"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_predict_writes_both_detectors_as_twice_the_single_maximum(files, capsys):
    assert cli.main(["predict", "--config", files["config"]]) == 0
    maximum = json.loads(capsys.readouterr().out)["cascade"]["aperture_maximum"]
    assert maximum["both_detectors"] == 2.0 * maximum["lhs"]


def test_predict_below_the_boundary_visibility_has_no_threshold(files, capsys):
    config = files["dir"] / "low.ini"
    config.write_text(CONFIG_TEXT.replace("v = 0.95", "v = 0.5"))
    assert cli.main(["predict", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["pdc"]["min_efficiency_for_violation"] is None
    assert '"min_efficiency_for_violation": null' in out


# Fuzzing the input files of every subcommand: whatever a mutation does to a
# valid file, main() exits 0 or 1 and prints no traceback.

BASE_CONFIG = {
    "pdc": {"v": "0.95", "eta": "0.1", "r0": "1.0"},
    "cascade": {"theta": "0.5", "zeta": "0.2", "r0": "2.0", "alpha": "0.9"},
    "analysis": {"n_pairs": "20000"},
    "search": {"eta": "0.8", "etas": "0.75, 0.9"},
}

CONFIG_VALUES = st.one_of(
    st.sampled_from(["", "abc", "nan", "inf", "-inf", "2.7", "1e6", "-1", "0", "1e308", "0,8"]),
    st.integers(-(2**70), 2**70).map(str),
    st.floats().map(repr),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)

JSON_VALUES = st.one_of(
    st.sampled_from([5, "2.5", None, [], {}, [1], True, "A", 0, -1, 2**1023]),
    st.floats(),
    st.integers(-(2**70), 2**70),
    st.text(max_size=8),
)

DROP = object()


def config_text(sections: dict) -> str:
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items()) + "\n"
        for name, keys in sections.items()
    )


def base_report() -> dict:
    rows = tuple(
        CountRow(x, y, *counts, singles_a=2000, singles_b=2000, duration=1.0)
        for (x, y), counts in zip(
            [("A", "B"), ("A", "D"), ("C", "B"), ("C", "D")],
            [(400, 100, 100, 400)] * 3 + [(100, 400, 400, 100)],
        )
    )
    report = run_analysis(CountDataset(rows=rows), AnalysisConfig(r0=1e4))
    return json.loads(render_report(report, "json"))


BASE_MODEL = {
    "cells": ["c0", "c1"],
    "weights": [0.25, 0.75],
    "side1": {"settings": ["A", "C"], "table": [[0.5, 0.25], [1.0, 0.0]]},
    "side2": {"settings": ["B", "D"], "table": [[0.5, 0.75], [0.0, 1.0]]},
}


def json_paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, item in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from json_paths(item, prefix + (key,))


def mutated(doc, path, value):
    if not path:
        return {} if value is DROP else value
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is DROP:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return doc


@st.composite
def mutated_json(draw, base):
    path = draw(st.sampled_from(list(json_paths(base))))
    text = json.dumps(mutated(base, path, draw(st.one_of(st.just(DROP), JSON_VALUES))))
    return text[: draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


@st.composite
def mutated_config(draw):
    sections = copy.deepcopy(BASE_CONFIG)
    name = draw(st.sampled_from(sorted(sections)))
    key = draw(st.sampled_from(sorted(sections[name])))
    action = draw(st.sampled_from(["drop key", "drop section", "set", "truncate"]))
    if action == "drop key":
        del sections[name][key]
    elif action == "drop section":
        del sections[name]
    elif action == "set":
        sections[name][key] = draw(CONFIG_VALUES)
    text = config_text(sections)
    return text[: draw(st.integers(0, len(text)))] if action == "truncate" else text


def run_quietly(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def assert_clean_exits(text: str, commands) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(text, encoding="utf-8")
        for argv in commands:
            code, output = run_quietly([*argv(str(path)), "--output", str(Path(tmp) / "out")])
            assert code in (0, 1), output
            assert "Traceback" not in output


@settings(max_examples=60, deadline=None)
@given(mutated_config())
def test_mutated_config_never_ends_in_a_traceback(text):
    assert_clean_exits(
        text,
        [
            lambda path: ["predict", "--config", path],
            lambda path: ["simulate", "--config", path, "--seed", "3"],
            lambda path: ["search", "--config", path],
        ],
    )


@settings(max_examples=100, deadline=None)
@given(mutated_json(base_report()))
def test_mutated_saved_report_never_ends_in_a_traceback(text):
    assert_clean_exits(
        text,
        [lambda path: ["report", path], lambda path: ["report", path, "--format", "json"]],
    )


@settings(max_examples=100, deadline=None)
@given(mutated_json(BASE_MODEL))
def test_mutated_model_never_ends_in_a_traceback(text):
    assert_clean_exits(text, [lambda path: ["validate", path]])
