"""JSON output fields checked against closed forms written out here.

Each expected value is computed from the config or from another printed
field, without calling the code that produced it, so a field wired to the
wrong value fails even when the function behind it is right.
"""

import csv
import itertools
import json
import math

import pytest

from bellkit import cli

CONFIGS = {
    "tests-config": {
        "pdc": {"v": 0.95, "eta": 0.1, "r0": 1.0},
        "cascade": {"theta": 0.5, "zeta": 0.2},
        "analysis": {"n_pairs": 20000},
    },
    "violating-cascade": {
        "pdc": {"v": 0.8, "eta": 0.3, "r0": 2.5},
        "cascade": {"theta": 0.5, "zeta": 1.0, "alpha": 15.0},
        "analysis": {"n_pairs": 500},
    },
}

# The canonical setting pairs and their polarizer angle differences.
ANGLES = {"A,B": -math.pi / 8, "A,D": math.pi / 8, "C,B": math.pi / 8, "C,D": 3 * math.pi / 8}


def run_json(tmp_path, argv) -> dict:
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--output", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.fixture(params=sorted(CONFIGS))
def config(request, tmp_path):
    """The config file's path and the values it holds."""
    sections = CONFIGS[request.param]
    path = tmp_path / "cfg.ini"
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    ))
    return str(path), sections


def test_predict_bell_condition(tmp_path, config):
    path, sections = config
    cascade = sections["cascade"]
    theta, zeta, alpha = cascade["theta"], cascade["zeta"], cascade.get("alpha", 1.0)
    eta = (1 - math.cos(theta)) * zeta / 2
    v = 1 - (2 / 3) * (1 - math.cos(theta)) ** 2
    lhs = alpha * eta * (1 + math.sqrt(2) * v)
    out = run_json(tmp_path, ["predict", "--config", path])["cascade"]
    assert out["bell_condition_lhs"] == pytest.approx(lhs, rel=1e-12)
    assert out["bell_condition_fulfilled"] is (lhs <= 2)


def test_predict_rates_at_canonical_angles(tmp_path, config):
    path, sections = config
    v, eta, r0 = (sections["pdc"][key] for key in ("v", "eta", "r0"))
    expected = {}
    for phi in ANGLES.values():
        same = eta * r0 * (1 + v * math.cos(2 * phi)) / 2
        opposite = eta * r0 * (1 - v * math.cos(2 * phi)) / 2
        # R++, R+-, R-+, R--
        expected[f"phi={phi:+.6f}"] = [same, opposite, opposite, same]
    out = run_json(tmp_path, ["predict", "--config", path])["pdc"]["rates_at_canonical_angles"]
    assert out.keys() == expected.keys()
    for key, rates in expected.items():
        assert out[key] == pytest.approx(rates, rel=1e-12), key


@pytest.mark.parametrize("eta", ["0.5", "0.8", "1.0"])
def test_search_pair_totals_follow_from_the_printed_weights(tmp_path, eta):
    out = run_json(tmp_path, ["search", "--eta", eta])
    # a side's strategy gives +, - or u (undetected) at its first setting,
    # then at its second, in product order
    strategies = list(itertools.product("+-u", repeat=2))
    weights = out["weights"]
    assert len(weights) == len(strategies)
    totals = {}
    for k1, first in enumerate(("A", "C")):
        for k2, second in enumerate(("B", "D")):
            totals[f"{first},{second}"] = sum(
                weights[i][j]
                for i, s1 in enumerate(strategies)
                for j, s2 in enumerate(strategies)
                if s1[k1] != "u" and s2[k2] != "u"
            )
    assert out["pair_totals"].keys() == totals.keys()
    for key, total in totals.items():
        assert out["pair_totals"][key] == pytest.approx(total, abs=1e-12), key


def test_analyze_angles_are_the_canonical_ones(tmp_path, config):
    path, _ = config
    counts = tmp_path / "counts.csv"
    simulate = ["simulate", "--config", path, "--seed", "5", "--output", str(counts)]
    assert cli.main(simulate) == 0
    out = run_json(tmp_path, ["analyze", str(counts)])
    assert out["provenance"]["config"]["angles"] == ANGLES
    assert [point["phi"] for point in out["plot_data"]] == list(ANGLES.values())


# Counts with singles and durations, some left empty, rows out of order.
WRITTEN_CSV = """setting_a,setting_b,n_pp,n_mm,n_pm,n_mp,singles_a,singles_b,duration
C,D,100,100,400,400,,,0.5
A,B,400,400,100,100,2000,1900,1.0
A,D,410,400,90,100,2000,,1.5
C,B,400,400,100,120,,2100,2.0
"""


def test_analyze_pairs_hold_the_counts_of_their_csv_rows(tmp_path, config):
    path, _ = config
    simulated, written = tmp_path / "simulated.csv", tmp_path / "written.csv"
    simulate = ["simulate", "--config", path, "--seed", "5", "--output", str(simulated)]
    assert cli.main(simulate) == 0
    written.write_text(WRITTEN_CSV)
    for counts in (simulated, written):
        lines = [line for line in counts.read_text().splitlines() if not line.startswith("#")]
        rows = {f"{r['setting_a']},{r['setting_b']}": r for r in csv.DictReader(lines)}
        out = run_json(tmp_path, ["analyze", str(counts)])
        for pair in out["pairs"]:
            row = rows[",".join(pair["settings"])]
            cells = {column: row.get(column) or None for column in
                     ("n_pp", "n_pm", "n_mp", "n_mm", "singles_a", "singles_b", "duration")}
            for column, cell in cells.items():
                expected = None if cell is None else float(cell) if column == "duration" else int(cell)
                assert pair[column] == expected, (counts.name, pair["settings"], column)
            assert pair["n"] == sum(int(cells[c]) for c in ("n_pp", "n_pm", "n_mp", "n_mm"))
