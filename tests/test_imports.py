import json
import subprocess
import sys
from pathlib import Path

import bellkit

SRC = str(Path(bellkit.__file__).resolve().parent.parent)

CONFIG_TEXT = """
[pdc]
v = 0.95
eta = 0.1

[cascade]
theta = 0.5
zeta = 0.2

[analysis]
n_pairs = 20000
"""


def test_import_leaves_scipy_optimize_unloaded():
    # scipy is imported only by the functions that solve an LP
    code = "import sys, bellkit; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_leaves_scipy_sparse_unloaded():
    # the LP matrices are built in sparse form on the first solve
    code = (
        "import sys, bellkit; "
        "print([m for m in ('scipy.optimize', 'scipy.sparse') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_subcommands_without_an_lp_leave_scipy_optimize_unloaded(tmp_path, rng):
    from conftest import random_model

    config, model = tmp_path / "cfg.ini", tmp_path / "model.json"
    counts, report = tmp_path / "counts.csv", tmp_path / "report.json"
    config.write_text(CONFIG_TEXT)
    random_model(rng).save(model)
    commands = [
        ["simulate", "--config", str(config), "--seed", "7", "--output", str(counts)],
        ["analyze", str(counts), "--output", str(report)],
        ["report", str(report), "--output", str(tmp_path / "report.txt")],
        ["predict", "--config", str(config), "--output", str(tmp_path / "predict.json")],
        ["validate", str(model), "--output", str(tmp_path / "validation.json")],
    ]
    code = (
        "import sys; from bellkit import cli; "
        "code = cli.main(sys.argv[1:]); print('scipy.optimize' in sys.modules); sys.exit(code)"
    )
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], cwd=SRC, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False", argv[0]
    assert json.loads(report.read_text())["s_star"] > 2.0
