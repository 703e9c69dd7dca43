import ast
import dataclasses
import importlib
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
    # neither is loaded before the first LP solve, which loads the HiGHS
    # bindings with scipy.optimize
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
    from conftest import random_model, save_model

    config, model = tmp_path / "cfg.ini", tmp_path / "model.json"
    counts, report = tmp_path / "counts.csv", tmp_path / "report.json"
    config.write_text(CONFIG_TEXT)
    save_model(random_model(rng), model)
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
# of a lower layer.
LAYERS = {"inequalities": 0, "models": 1, "experiments": 1, "search": 2, "harness": 3, "cli": 4}


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
    assert {(a, b) for a, b in edges if LAYERS[b] >= LAYERS[a]} == set()


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


# The public names of `bellkit`, pinned so that no name is lost from the
# table that resolves them on first use.
PUBLIC_NAMES = [
    "CountDataset", "CountRow", "DatasetError", "InequalityReport", "ProbabilitySet",
    "TwoChannelCounts", "ch_report", "correlation", "fc_report", "renormalized_correlation",
    "FactorizableModel", "Feasible", "FourOutcomeJoint", "HiddenVariableSpace", "Infeasible",
    "ResponseTable", "ValidationReport", "joint_feasibility", "joint_probability",
    "marginal_probability", "probability_set_from_model", "validate_model",
    "CascadeConfig", "PdcConfig", "bi1_min_efficiency", "bi_margin", "cascade_bi_maximum",
    "cascade_optics", "cascade_rates", "spacelike_constraints", "two_channel_rates",
    "SearchResult", "StrategyMixture", "maximize_s_star", "mixture_statistics", "sample_counts",
    "AnalysisConfig", "AnalysisReport", "ingest_counts", "run_analysis",
]
# Names the package once exported and no longer does.
REMOVED_NAMES = [
    "AngleSet", "optimal_angles", "visibility_estimators", "InsufficientCoverageError",
    "channel_conversion", "ChannelProbabilities", "emit_report", "formal_joint_distribution",
    "mixture_to_model", "NormalizationError", "KinematicsInput", "s_statistic",
]
SUBMODULES = ["inequalities", "models", "experiments", "search", "harness"]


def run_python(*argv):
    return subprocess.run(
        [sys.executable, *argv], cwd=SRC, capture_output=True, text=True, timeout=60
    )


def test_public_names_resolve_from_their_modules():
    assert bellkit.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(bellkit, name)
        assert getattr(importlib.import_module(value.__module__), name) is value
        # filed under the module that defines it, not one that re-imports it
        assert bellkit._MODULE_OF[name] == value.__module__.rsplit(".", 1)[1], name
    namespace = {}
    exec("from bellkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)


def test_report_types_store_only_what_was_measured():
    # S, S*, their errors, the verdicts and each verdict's margin and flags
    # are computed from these fields, and a pair's n, E*, E and error from
    # its counts row, so a saved report cannot contradict them
    fields = {
        name: [f.name for f in dataclasses.fields(getattr(bellkit, name))]
        for name in ("AnalysisReport", "InequalityReport")
    }
    fields["PairStats"] = [f.name for f in dataclasses.fields(bellkit.harness.PairStats)]
    # S* and the genuine S of a search follow from its outcome tables
    fields["SearchResult"] = [f.name for f in dataclasses.fields(bellkit.SearchResult)]
    # the search LP keeps one dense table, its eta entries nan
    fields["_SearchLP"] = [f.name for f in dataclasses.fields(bellkit.search._SearchLP)]
    assert fields == {
        "AnalysisReport": ["pairs", "provenance"],
        "InequalityReport": ["name", "lhs", "rhs"],
        "PairStats": ["row", "n0"],
        "SearchResult": ["eta", "mixture"],
        "_SearchLP": ["c", "b_eq", "a_eq"],
    }


def array_dataclasses(namespace: dict) -> dict[str, type]:
    """The dataclasses defined in namespace with a field annotated as an
    ndarray, by name."""
    return {
        name: value
        for name, value in namespace.items()
        if isinstance(value, type)
        and dataclasses.is_dataclass(value)
        and value.__module__ == namespace["__name__"]
        and any("ndarray" in str(f.type) for f in dataclasses.fields(value))
    }


def test_array_guard_finds_every_array_field():
    namespace = {"__name__": __name__}
    exec(
        "from __future__ import annotations\n"
        "from dataclasses import dataclass\n"
        "import numpy as np\n"
        "@dataclass(frozen=True)\nclass Witness:\n    q: np.ndarray\n"
        "@dataclass(frozen=True)\nclass Pair:\n    a: float\n    b: tuple[np.ndarray, ...]\n"
        "@dataclass(frozen=True)\nclass Plain:\n    a: float\n",
        namespace,
    )
    assert sorted(array_dataclasses(namespace)) == ["Pair", "Witness"]


def test_array_holding_dataclasses_compare_by_value():
    # the generated __eq__ compares array fields with ==, whose truth value
    # is ambiguous: a dataclass holding an array compares by value with
    # models._value_eq, or, built with eq=False and no __eq__ of its own,
    # by identity as _SearchLP does
    package = Path(bellkit.__file__).resolve().parent
    found = {}
    for path in package.glob("[!_]*.py"):
        module = importlib.import_module(f"bellkit.{path.stem}")
        found.update(array_dataclasses(vars(module)))
    assert {"StrategyMixture", "HiddenVariableSpace", "ResponseTable"} <= set(found)
    for name, cls in found.items():
        assert cls.__eq__ in (bellkit.models._value_eq, object.__eq__), name


def test_dir_lists_public_names_and_submodules():
    assert set(PUBLIC_NAMES + SUBMODULES) <= set(dir(bellkit))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        bellkit.no_such_name
    for name in REMOVED_NAMES:
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(bellkit, name)
    with pytest.raises(ImportError):
        from bellkit import no_such_name  # noqa: F401


def test_bare_import_loads_no_submodule_and_resolves_them_on_use():
    code = (
        "import sys, bellkit; "
        "print(sorted(m for m in sys.modules if m.startswith(('bellkit.', 'numpy')))); "
        f"print([getattr(bellkit, m).__name__ for m in {SUBMODULES!r}])"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", str([f"bellkit.{m}" for m in SUBMODULES])]


@pytest.fixture
def saved_report(tmp_path):
    """A config, the counts simulated from it and their saved JSON analysis."""
    from bellkit import cli

    config, counts, report = tmp_path / "cfg.ini", tmp_path / "counts.csv", tmp_path / "r.json"
    config.write_text(CONFIG_TEXT)
    simulate = ["simulate", "--config", str(config), "--seed", "7", "--output", str(counts)]
    assert cli.main(simulate) == 0
    assert cli.main(["analyze", str(counts), "--output", str(report)]) == 0
    return config, counts, report


def test_subcommands_without_arithmetic_leave_numpy_unloaded(tmp_path, saved_report):
    config, counts, report = saved_report
    commands = [
        ["analyze", str(counts), "--output", str(tmp_path / "again.json")],
        ["report", str(report), "--output", str(tmp_path / "report.txt")],
        ["predict", "--config", str(config), "--output", str(tmp_path / "predict.json")],
    ]
    code = (
        "import sys; from bellkit import cli; "
        "code = cli.main(sys.argv[1:]); print('numpy' in sys.modules); sys.exit(code)"
    )
    for argv in commands:
        proc = run_python("-c", code, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False", argv[0]
    again = json.loads((tmp_path / "again.json").read_text())
    assert again["digest"] == json.loads(report.read_text())["digest"]


def test_no_subcommand_loads_configparser(tmp_path, saved_report, rng):
    # harness.load_config reads configs itself; a module stays in
    # sys.modules once loaded, so one process checks each command after it runs
    from conftest import random_model, save_model

    config, counts, report = saved_report
    model, out = tmp_path / "model.json", str(tmp_path / "out")
    save_model(random_model(rng), model)
    commands = [
        ["simulate", "--config", str(config), "--seed", "7", "--output", out],
        ["analyze", str(counts), "--config", str(config), "--output", out],
        ["report", str(report), "--output", out],
        ["predict", "--config", str(config), "--output", out],
        ["search", "--config", str(config), "--eta", "0.8", "--output", out],
        ["validate", str(model), "--output", out],
    ]
    code = (
        "import json, sys\nfrom bellkit import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    print(argv[0], cli.main(argv), 'configparser' in sys.modules)"
    )
    proc = run_python("-c", code, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{argv[0]} 0 False" for argv in commands]


def test_cli_module_runs_under_warnings_as_errors(saved_report):
    # runpy warns when `python -m bellkit.cli` finds bellkit.cli already
    # imported by the package
    _, _, report = saved_report
    proc = run_python("-W", "error", "-m", "bellkit.cli", "report", str(report))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "" and "S*" in proc.stdout


def imported_packages(tree: ast.AST) -> set[str]:
    """The top-level packages other than bellkit that a syntax tree imports
    anywhere, function bodies included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.partition(".")[0])
    return found - {"bellkit"}


def loaded_on_import(source: str) -> set[str]:
    """The top-level packages and bellkit modules that a module's source
    imports outside function bodies, that is, on its own import."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node.body = [ast.Pass()]
    return imported_packages(tree) | bellkit_imports(ast.unparse(tree))


@pytest.mark.parametrize(
    "source, loaded",
    [
        ("import numpy as np", {"numpy"}),
        ("from numpy.linalg import norm", {"numpy"}),
        ("try:\n    import numpy\nexcept ImportError:\n    pass", {"numpy"}),
        ("class C:\n    import numpy", {"numpy"}),
        ("def f():\n    import numpy as np\n    return np", set()),
        ("class C:\n    def f(self):\n        from numpy import array", set()),
        ("from . import harness, search", {"harness", "search"}),
        ("import bellkit.models", {"models"}),
        ("def f():\n    from . import search\n    from .models import validate_model", set()),
    ],
)
def test_import_guard_skips_only_function_bodies(source, loaded):
    assert loaded_on_import(source) == loaded


# The modules whose own import loads numpy.  The rest import it, or these
# modules, only inside the functions that need them, so that `import bellkit`
# and the commands that do no array arithmetic never load numpy.
NUMPY_IMPORTERS = {"models", "search"}


def test_only_models_and_search_import_numpy_on_import():
    package = Path(bellkit.__file__).resolve().parent
    loaded = {p.stem: loaded_on_import(p.read_text()) for p in package.glob("*.py")}
    assert {stem for stem, names in loaded.items() if "numpy" in names} == NUMPY_IMPORTERS
    assert loaded["cli"] & NUMPY_IMPORTERS == set()


@pytest.mark.parametrize(
    "source, packages",
    [
        ("import numpy as np", {"numpy"}),
        ("def f():\n    import numpy as np\n    return np", {"numpy"}),
        ("class C:\n    def f(self):\n        from numpy.linalg import norm", {"numpy"}),
        ("from . import search\nimport bellkit.models\nimport math", {"math"}),
    ],
)
def test_package_guard_counts_function_bodies(source, packages):
    assert imported_packages(ast.parse(source)) == packages


def test_no_other_module_imports_numpy_even_in_a_function():
    # the other modules reach numpy only through models and search
    package = Path(bellkit.__file__).resolve().parent
    imports = {p.stem: imported_packages(ast.parse(p.read_text())) for p in package.glob("*.py")}
    assert {stem for stem, names in imports.items() if "numpy" in names} == NUMPY_IMPORTERS


def test_no_module_imports_configparser():
    # harness.load_config reads the INI subset the package documents
    package = Path(bellkit.__file__).resolve().parent
    imports = {p.stem: imported_packages(ast.parse(p.read_text())) for p in package.glob("*.py")}
    assert [stem for stem, names in imports.items() if "configparser" in names] == []


# cli.load_json is the one reader of a saved JSON file: it reads a
# byte-order mark and names the file of undecodable, malformed or too deeply
# nested JSON.
JSON_READERS = {"load", "loads"}


def json_reads(source: str) -> list[tuple]:
    """Each use of json.load or json.loads in a module's source, as an
    attribute of json under any name `import json` binds it to, or imported
    from json: the innermost function around it (None at module level) and
    its line."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "json"
    }
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Attribute)
            and node.attr in JSON_READERS
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "json"
            and any(alias.name in JSON_READERS for alias in node.names)
        ):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


@pytest.mark.parametrize(
    "source, reads",
    [
        ("import json\njson.load(fh)", [(None, 2)]),
        ("import json\ndef f(t):\n    return json.loads(t)", [("f", 3)]),
        ("import json\nparse = json.loads", [(None, 2)]),
        ("import json as j\nj.load(fh)", [(None, 2)]),
        ("from json import dumps, loads", [(None, 1)]),
        ("import json\nclass C:\n    def load_json(self, fh):\n        return json.load(fh)",
         [("load_json", 4)]),
        ("import json\njson.dumps(x)\nexcept_ = json.JSONDecodeError", []),
        ("from json import dumps\nself.load(fh)\nload_json(path)", []),
        ("import numpy as json_like\njson_like.load(fh)", []),
    ],
)
def test_json_reader_guard_finds_every_read(source, reads):
    assert json_reads(source) == reads


def test_load_json_is_the_only_json_reader_in_the_package():
    package = Path(bellkit.__file__).resolve().parent
    found = {
        (p.name, function) for p in package.glob("*.py") for function, _ in json_reads(p.read_text())
    }
    assert found == {("cli.py", "load_json")}


# models._frozen is the one place that makes an array read-only: every
# array a value type or a cached constant holds goes through it.
def writeable_assignments(source: str) -> list[tuple]:
    """Each assignment to an attribute `<x>.flags.writeable` in a module's
    source: the innermost function around it (None at module level) and
    its line."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if (
                    isinstance(sub, ast.Attribute)
                    and sub.attr == "writeable"
                    and isinstance(sub.value, ast.Attribute)
                    and sub.value.attr == "flags"
                ):
                    found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize(
    "source, assignments",
    [
        ("a.flags.writeable = False", [(None, 1)]),
        ("def f(w):\n    w.data.flags.writeable = False", [("f", 2)]),
        ("class C:\n    def g(self):\n        x = self.w.flags.writeable = 0", [("g", 3)]),
        ("a, b.flags.writeable = 1, False", [(None, 1)]),
        ("ok = a.flags.writeable\nassert not b.flags.writeable\nf(writeable=False)", []),
    ],
)
def test_writeable_guard_finds_every_assignment(source, assignments):
    assert writeable_assignments(source) == assignments


def test_only_frozen_sets_the_writeable_flag():
    package = Path(bellkit.__file__).resolve().parent
    found = {
        (p.name, function)
        for p in package.glob("*.py")
        for function, _ in writeable_assignments(p.read_text())
    }
    assert found == {("models.py", "_frozen")}
