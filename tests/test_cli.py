import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bellkit
from bellkit import cli

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
    from conftest import random_model

    config = tmp_path / "cfg.ini"
    config.write_text(CONFIG_TEXT)
    model = tmp_path / "model.json"
    random_model(rng).save(model)
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
