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
from bellkit.harness import AnalysisConfig, render_report, run_analysis
from bellkit.inequalities import CountDataset, CountRow

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
    """Every subcommand, usage errors, help and an input error, interleaved."""
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
        ["search", "--eta", "0.8", "extra"],
        ["analyze", str(d / "missing.csv")],
        ["-h"],
        ["analyze", counts],
        ["report", report],
    ]


def blank(text):
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', text)


def run(argv, capsys, call=cli.main):
    """Exit code, stdout and stderr of one call(argv), timestamps blanked."""
    try:
        code = call(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out, err = capsys.readouterr()
    return code, blank(out), err


def test_cached_parser_matches_a_fresh_parser_per_call(files, capsys, monkeypatch):
    cached = [run(argv, capsys) for argv in session(files)]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run(argv, capsys) for argv in session(files)]
    assert cached == fresh
    codes = [code for code, _, _ in cached]
    assert codes.count(0) == 10
    assert codes.count(("SystemExit", 2)) == 2 and ("SystemExit", 0) in codes and 1 in codes


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


SUBCOMMANDS = ("validate", "predict", "analyze", "simulate", "search", "report")


def command_lines():
    """Valid command lines of every subcommand, help and usage errors, with
    paths relative to the working directory.  Each command line finds the
    files that the ones before it wrote."""
    config = "cfg.ini"
    return [
        ["simulate", "--config", config, "--seed", "7", "--output", "counts.csv"],
        ["analyze", "counts.csv", "--output", "report.json"],
        ["analyze", "counts.csv", "--config", config, "--format", "text"],
        ["report", "report.json"],
        ["report", "report.json", "--format", "json"],
        ["predict", "--config", config],
        ["search", "--eta", "0.8"],
        ["validate", "model.json"],
        ["-h"],
        *([sub, "-h"] for sub in SUBCOMMANDS),
        ["search", "--eta", "0.8", "-h"],
        [],
        ["frobnicate"],
        ["Search", "--eta", "0.8"],
        ["search", "--eta", "0.8", "--out", "out.json"],
        ["predict"],
        ["simulate", "--config", config, "--seed", "7"],
        ["search", "--eta"],
        ["--", "search", "--eta", "0.8"],
        ["search", "--eta", "0.8", "extra"],
        ["analyze", "counts.csv", "--format", "text", "--", "extra"],
    ]


def parse_then_run(argv):
    """The whole command line through a fresh top-level parser, then the
    command's function: what main() must match on every command line."""
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


def outcomes(call, directory, files, capsys, monkeypatch):
    """Per command line: the exit code (or SystemExit code), stdout, stderr
    and the files in directory, each with timestamps blanked."""
    directory.mkdir()
    for name in ("config", "model"):
        (directory / Path(files[name]).name).write_bytes(Path(files[name]).read_bytes())
    monkeypatch.chdir(directory)
    results = []
    for argv in command_lines():
        code, out, err = run(argv, capsys, call)
        written = {p.name: blank(p.read_text()) for p in sorted(directory.iterdir())}
        results.append((argv, code, out, err, written))
    return results


def test_main_matches_the_top_level_parser_on_every_command_line(files, capsys, monkeypatch):
    d = files["dir"]
    direct = outcomes(cli.main, d / "main", files, capsys, monkeypatch)
    assert direct == outcomes(parse_then_run, d / "parse", files, capsys, monkeypatch)
    codes = [code for _, code, _, _, _ in direct]
    assert codes.count(0) == 9 and codes.count(("SystemExit", 0)) == 8
    assert codes.count(("SystemExit", 2)) == len(codes) - 17
    # the top-level usage names unrecognized arguments, not the command's
    _, _, out, err, _ = direct[-2]
    assert out == "" and err.startswith("usage: bellkit [-h]")
    assert err.endswith("\nbellkit: error: unrecognized arguments: extra\n")


@pytest.mark.parametrize(
    "config, argv, message",
    [
        ("[search]\neta = 0.5\n", ["--eta", "2"], "--eta: eta = 2.0 outside (1e-9, 1]"),
        ("[search]\neta = 0\n", [], "[search] eta: eta = 0.0 outside (1e-9, 1]"),
        ("[search]\netas = 0.5, 2\n", [], "[search] etas: eta = 2.0 outside (1e-9, 1]"),
    ],
    ids=["flag", "eta-key", "etas-entry"],
)
def test_search_range_error_names_its_flag_or_key(tmp_path, capsys, config, argv, message):
    path = tmp_path / "cfg.ini"
    path.write_text(config)
    assert cli.main(["search", "--config", str(path), *argv]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


@st.composite
def analyzable_counts(draw) -> tuple[str, float | None]:
    """A counts CSV that analyze accepts, with or without singles, durations
    and a seed line, and the r0 of its config, or None for no config.  The
    singles and the expected pairs r0 * duration exceed every count, so the
    CH probabilities are valid whenever they are defined."""
    durations = draw(st.booleans())
    rows = [
        CountRow(
            x, y, *draw(st.tuples(st.integers(1, 1000), *[st.integers(0, 1000)] * 3)),
            singles_a=draw(st.none() | st.integers(10**4, 10**5)),
            singles_b=draw(st.none() | st.integers(10**4, 10**5)),
            duration=draw(st.floats(0.5, 2.0)) if durations else None,
        )
        for x, y in [("A", "B"), ("A", "D"), ("C", "B"), ("C", "D")]
    ]
    seed = draw(st.none() | st.integers(-(10**30), 10**30))
    dataset = CountDataset(tuple(draw(st.permutations(rows))), seed=seed)
    return dataset.to_csv(), draw(st.none() | st.floats(2e5, 1e7))


@settings(max_examples=40, deadline=None)
@given(analyzable_counts())
def test_report_renders_the_saved_analysis_as_analyze_does(case):
    counts, r0 = case
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "counts.csv").write_text(counts)
        analyze = ["analyze", str(d / "counts.csv")]
        if r0 is not None:
            (d / "cfg.ini").write_text(f"[analysis]\nr0 = {r0!r}\n")
            analyze += ["--config", str(d / "cfg.ini")]
        saved = str(d / "analysis.json")
        commands = {
            "analysis.json": [*analyze, "--format", "json"],
            "analysis.txt": [*analyze, "--format", "text"],
            "report.json": ["report", saved, "--format", "json"],
            "report.txt": ["report", saved, "--format", "text"],
        }
        outputs = {}
        for name, argv in commands.items():
            assert cli.main([*argv, "--output", str(d / name)]) == 0
            outputs[name] = blank((d / name).read_text())
    # the digest included
    assert outputs["report.json"] == outputs["analysis.json"]
    assert outputs["report.txt"] == outputs["analysis.txt"]


@settings(max_examples=100, deadline=None)
@given(mutated_json(BASE_MODEL))
def test_mutated_model_never_ends_in_a_traceback(text):
    assert_clean_exits(text, [lambda path: ["validate", path]])
