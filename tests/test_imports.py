import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


# The layer of each module, lowest first: a module imports only from modules
# of a lower layer.  search imports harness, whose CountDataset sample_counts
# returns, and that is the one edge allowed to point up or across.
LAYERS = {"inequalities": 0, "models": 1, "experiments": 1, "search": 2, "harness": 3, "cli": 4}
KNOWN_BACK_EDGES = {("search", "harness")}


def bellkit_imports(source: str) -> set[str]:
    """The bellkit modules a module's source imports, relatively or not."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.startswith("bellkit.")]
            found.update(name.split(".")[1] for name in names)
        elif isinstance(node, ast.ImportFrom):
            # "from .x import y" or "from . import x", or the same from bellkit
            if node.level:
                module = node.module
            elif node.module == "bellkit" or node.module.startswith("bellkit."):
                module = node.module.partition(".")[2]
            else:
                continue
            found.update([module.split(".")[0]] if module else [a.name for a in node.names])
    return found


@pytest.mark.parametrize(
    "source, imported",
    [
        ("from . import cli, search", {"cli", "search"}),
        ("from .harness import run_analysis", {"harness"}),
        ("from .inequalities import CANONICAL_PAIRS as PAIRS", {"inequalities"}),
        ("import bellkit.models", {"models"}),
        ("from bellkit.search import maximize_s_star", {"search"}),
        ("from bellkit import experiments", {"experiments"}),
        ("def f():\n    from .cli import main", {"cli"}),
        ("import json\nfrom typing import Optional\nimport bellkitx", set()),
    ],
)
def test_layering_guard_finds_every_import_form(source, imported):
    assert bellkit_imports(source) == imported


def test_modules_import_only_from_lower_layers():
    package = Path(bellkit.__file__).resolve().parent
    modules = [p for p in package.glob("*.py") if p.stem != "__init__"]
    assert {p.stem for p in modules} == set(LAYERS)
    edges = {(p.stem, imported) for p in modules for imported in bellkit_imports(p.read_text())}
    assert {(a, b) for a, b in edges if LAYERS[b] >= LAYERS[a]} == KNOWN_BACK_EDGES


# The setting labels are written once, in inequalities.py; every other module
# takes them from SIDE1_SETTINGS, SIDE2_SETTINGS or CANONICAL_PAIRS.
SETTING_LABELS = {"A", "B", "C", "D"}


def setting_labels(source: str) -> list[str]:
    """The string constants of a module's source that are setting labels."""
    return [
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and node.value in SETTING_LABELS
    ]


@pytest.mark.parametrize(
    "source, labels",
    [
        ('SIDE1 = ("A", "C")', ["A", "C"]),
        ('row = rows[("A", "B")]', ["A", "B"]),
        ('a = x.astype(float, order="C")', ["C"]),
        ('def f(m, D="D"):\n    """Settings A, B, C and D."""', ["D"]),
        ('s = f"p{x}{y}" + "AB" + "a" + "D "', []),
    ],
)
def test_label_guard_finds_every_label_constant(source, labels):
    assert setting_labels(source) == labels


def test_setting_labels_are_written_only_in_inequalities():
    package = Path(bellkit.__file__).resolve().parent
    found = {p.name: setting_labels(p.read_text()) for p in package.glob("*.py")}
    assert found.pop("inequalities.py")
    assert {name: labels for name, labels in found.items() if labels} == {}
