import itertools
import json
import math

import numpy as np
import pytest

from bellkit import inequalities, models
from bellkit.inequalities import (
    PAIR_TOL,
    InequalityReport,
    ProbabilitySet,
    ch_report,
    least_slack_facet,
)
from bellkit.models import (
    CH_FAMILY_FACETS,
    FactorizableModel,
    Feasible,
    FourOutcomeJoint,
    HiddenVariableSpace,
    Infeasible,
    OUTCOME_TUPLES,
    ResponseTable,
    joint_feasibility,
    joint_probability,
    marginal_probability,
    probability_set_from_model,
    scan_ch_family,
    solve_equality_lp,
    validate_model,
)
from conftest import formal_joint_distribution, model_json, random_model

SIDE1 = ("A", "C")
SIDE2 = ("B", "D")


def uniform_model(n_cells=8, value=0.5):
    cells = tuple(f"c{i}" for i in range(n_cells))
    space = HiddenVariableSpace(cells, np.full(n_cells, 1.0 / n_cells))
    r1 = ResponseTable(1, SIDE1, np.full((n_cells, 2), value))
    r2 = ResponseTable(2, SIDE2, np.full((n_cells, 2), value))
    return FactorizableModel(space, r1, r2)


# The position of each setting in an outcome tuple (a, c, b, d).
POSITION = {"A": 0, "C": 1, "B": 2, "D": 3}


def yes_probability(joint, *settings):
    """The probability under a FourOutcomeJoint that every one of the
    settings gives "yes": a marginal for one setting, a pair for two."""
    return sum(
        p for t, p in joint.probabilities.items() if all(t[POSITION[s]] for s in settings)
    )


class TestValidateModel:
    def test_uniform_model_valid(self):
        assert validate_model(uniform_model()).valid

    def test_normalization_deficit(self):
        model = uniform_model()
        bad = FactorizableModel(
            HiddenVariableSpace(model.space.cells, model.space.weights * 0.98),
            model.response1,
            model.response2,
        )
        report = validate_model(bad)
        assert not report.valid
        (violation,) = report.violations
        assert violation.kind == "normalization"
        assert violation.amount == pytest.approx(0.02)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_are_violations(self, value):
        model = uniform_model(n_cells=2)
        weights = np.array([value, 0.5])
        values = model.response2.values.copy()
        values[1, 1] = value
        bad = FactorizableModel(
            HiddenVariableSpace(model.space.cells, weights),
            model.response1,
            ResponseTable(2, SIDE2, values),
        )
        report = validate_model(bad)
        assert not report.valid
        non_finite = [v for v in report.violations if v.kind == "non-finite"]
        assert [v.where for v in non_finite] == ["weight[c0]", "side2[c1,D]"]
        data = json.loads(json.dumps(report.to_json(), allow_nan=False))
        assert [v["amount"] for v in data["violations"] if v["kind"] == "non-finite"] == [
            str(value)
        ] * 2

    def test_range_violation_with_coordinates(self):
        model = uniform_model(n_cells=4)
        values = model.response1.values.copy()
        values[3, 0] = 1.2
        bad = FactorizableModel(
            model.space, ResponseTable(1, SIDE1, values), model.response2
        )
        report = validate_model(bad)
        (violation,) = report.violations
        assert violation.kind == "range"
        assert violation.where == "side1[c3,A]"
        assert violation.amount == pytest.approx(1.2)


class TestHeldArrays:
    def test_caller_arrays_stay_writable_and_apart(self):
        # the instances hold read-only copies: the caller's arrays stay
        # writable, and a later write to them does not reach the instance
        w = np.array([0.25, 0.75])
        table = np.array([[1.0, 0.0], [0.5, 0.5]])
        space = HiddenVariableSpace(("a", "b"), w)
        response = ResponseTable(1, SIDE1, table)
        w[0] = 1.0
        table[0, 0] = 0.0
        assert space.weights.tolist() == [0.25, 0.75]
        assert response.values.tolist() == [[1.0, 0.0], [0.5, 0.5]]
        for held in (space.weights, response.values):
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 0.0


class TestMarginalProbability:
    def test_unit_response_gives_one(self):
        model = uniform_model(value=1.0)
        assert marginal_probability(model, "A", 1) == pytest.approx(1.0, abs=1e-15)

    def test_weighted_two_cell_sum(self):
        space = HiddenVariableSpace(("c0", "c1"), np.array([0.25, 0.75]))
        r1 = ResponseTable(1, SIDE1, np.array([[1.0, 0.0], [0.0, 0.0]]))
        r2 = ResponseTable(2, SIDE2, np.zeros((2, 2)))
        model = FactorizableModel(space, r1, r2)
        assert marginal_probability(model, "A", 1) == pytest.approx(0.25)

    def test_efficiency_scaled_indicator(self):
        # responses eta * D(lambda) with eta = 0.8 and D = 1 on half the cells
        n = 8
        space = HiddenVariableSpace(tuple(f"c{i}" for i in range(n)), np.full(n, 1 / n))
        table = np.zeros((n, 2))
        table[: n // 2, :] = 0.8
        model = FactorizableModel(
            space, ResponseTable(1, SIDE1, table), ResponseTable(2, SIDE2, np.zeros((n, 2)))
        )
        assert marginal_probability(model, "A", 1) == pytest.approx(0.4)

    def test_unknown_setting(self):
        with pytest.raises(KeyError):
            marginal_probability(uniform_model(), "Z", 1)


class TestJointProbability:
    def test_constant_half_responses(self):
        assert joint_probability(uniform_model(), "A", "B") == pytest.approx(0.25)

    def test_deterministic_perfect_correlation(self):
        space = HiddenVariableSpace(("c0", "c1"), np.array([0.5, 0.5]))
        indicator = np.array([[1.0, 1.0], [0.0, 0.0]])
        model = FactorizableModel(
            space, ResponseTable(1, SIDE1, indicator), ResponseTable(2, SIDE2, indicator)
        )
        assert joint_probability(model, "A", "B") == pytest.approx(0.5)

    def test_parameter_independence_identity(self, rng):
        # p(A,B) + p(A,B') = p(A) when P2(.,B') = 1 - P2(.,B)
        model = random_model(rng)
        complement = 1.0 - model.response2.values[:, 0]
        values = np.column_stack([model.response2.values[:, 0], complement])
        model2 = FactorizableModel(
            model.space, model.response1, ResponseTable(2, ("B", "Bc"), values)
        )
        total = joint_probability(model2, "A", "B") + joint_probability(model2, "A", "Bc")
        assert total == pytest.approx(marginal_probability(model2, "A", 1), abs=1e-12)


class TestFormalJointDistribution:
    def test_deterministic_point_mass(self):
        space = HiddenVariableSpace(("c0",), np.array([1.0]))
        r1 = ResponseTable(1, SIDE1, np.array([[1.0, 0.0]]))
        r2 = ResponseTable(2, SIDE2, np.array([[0.0, 1.0]]))
        model = FactorizableModel(space, r1, r2)
        joint = formal_joint_distribution(model)
        assert joint.probabilities[(1, 0, 0, 1)] == pytest.approx(1.0)
        assert sum(joint.probabilities.values()) == pytest.approx(1.0, abs=1e-12)

    def test_fair_coins_are_uniform(self):
        joint = formal_joint_distribution(uniform_model())
        for tup in OUTCOME_TUPLES:
            assert joint.probabilities[tup] == pytest.approx(1 / 16, abs=1e-12)

    def test_marginals_match_direct_sums(self, rng):
        for _ in range(50):
            model = random_model(rng)
            joint = formal_joint_distribution(model)
            for setting, side in (("A", 1), ("C", 1), ("B", 2), ("D", 2)):
                assert yes_probability(joint, setting) == pytest.approx(
                    marginal_probability(model, setting, side), abs=1e-12
                )
            for x, y in itertools.product(SIDE1, SIDE2):
                assert yes_probability(joint, x, y) == pytest.approx(
                    joint_probability(model, x, y), abs=1e-12
                )

    def test_equality_compares_probabilities(self):
        uniform = {t: 1 / 16 for t in OUTCOME_TUPLES}
        point_mass = {t: float(t == (1, 0, 0, 1)) for t in OUTCOME_TUPLES}
        assert FourOutcomeJoint(uniform) == FourOutcomeJoint(dict(uniform))
        assert Feasible(FourOutcomeJoint(uniform)) == Feasible(FourOutcomeJoint(dict(uniform)))
        assert FourOutcomeJoint(point_mass) != FourOutcomeJoint(uniform)
        assert Feasible(FourOutcomeJoint(point_mass)) != Feasible(FourOutcomeJoint(uniform))


class TestJointFeasibility:
    def test_overlapping_pairs_infeasible_with_certificate(self):
        ps = ProbabilitySet(0.5, 0.5, 0.5, 0.5, 0.5, 0.0)
        result = joint_feasibility(ps)
        assert isinstance(result, Infeasible)
        assert result.certificate.name == "CH"
        # CH arithmetic: lhs 1.5 exceeds rhs 1.0 by 0.5
        assert result.certificate.lhs - result.certificate.rhs == pytest.approx(0.5)
        # the certificate is a verdict: a violated inequality of local realism alone
        assert type(result.certificate) is InequalityReport
        assert result.certificate.violated and result.certificate.genuine

    def test_product_sets_feasible(self, rng):
        for _ in range(20):
            pa, pb, pc, pd = rng.random(4)
            ps = ProbabilitySet(pa, pb, pa * pb, pa * pd, pc * pb, pc * pd)
            assert isinstance(joint_feasibility(ps), Feasible)

    def test_singlet_values_infeasible(self):
        from test_inequalities import singlet_probability_set

        result = joint_feasibility(singlet_probability_set())
        assert isinstance(result, Infeasible)

    def test_witness_reproduces_marginals(self):
        ps = ProbabilitySet(0.5, 0.5, 0.25, 0.25, 0.25, 0.25)
        result = joint_feasibility(ps)
        assert isinstance(result, Feasible)
        w = result.witness
        assert yes_probability(w, "A") == pytest.approx(0.5, abs=1e-7)
        assert yes_probability(w, "C", "D") == pytest.approx(0.25, abs=1e-7)

    def test_model_derived_sets_always_feasible(self, rng):
        for _ in range(100):
            ps = probability_set_from_model(random_model(rng))
            assert isinstance(joint_feasibility(ps), Feasible)

    def test_solution_off_an_equality_row_is_not_feasible(self, solver_off_one_row):
        # the solver reports an optimum that misses the pCD row by 1e-3; the
        # post-solve residual check refuses it
        ps = ProbabilitySet(0.5, 0.5, 0.25, 0.25, 0.25, 0.25)
        result = joint_feasibility(ps)
        assert solver_off_one_row == ["kOptimal"]
        assert isinstance(result, Infeasible)
        assert result.certificate.name in FACET_IDS


# The 16 deterministic outcomes (a, c, b, d) as points
# (pA, pB, pAB, pAD, pCB, pCD), written out independently of bellkit.
VERTICES = np.array(
    [(a, b, a * b, a * d, c * b, c * d) for a, c, b, d in itertools.product((0, 1), repeat=4)],
    dtype=float,
)
FACET_IDS = [name for name, _, _ in CH_FAMILY_FACETS]

# The facets a ProbabilitySet can cross by 2 PAIR_TOL; for the others its
# own checks (a pair above its marginal, a value below -PAIR_TOL) refuse
# such a point first.
CROSSABLE_FACETS = [
    "CH", "CH-lower", "bound pAB >= pA+pB-1", "bound pCD <= 1-pA+pAD", "bound pCD <= 1-pB+pCB"
]


def witness_point(witness):
    return [
        yes_probability(witness, "A"),
        yes_probability(witness, "B"),
        *(yes_probability(witness, x, y) for x, y in itertools.product(SIDE1, SIDE2)),
    ]


class TestLocalPolytope:
    def test_facets_are_the_hull_of_the_vertices(self):
        from scipy.spatial import ConvexHull

        distinct = np.unique(VERTICES, axis=0)
        assert len(distinct) == 12
        # qhull triangulates: equal unit hyperplanes n.x + d <= 0 repeat
        hull = {tuple(np.round(eq, 9) + 0.0) for eq in ConvexHull(distinct).equations}
        listed = set()
        for _, coeff, offset in CH_FAMILY_FACETS:
            norm = np.linalg.norm(coeff)
            listed.add(tuple(np.round(np.append(coeff, -offset) / norm, 9) + 0.0))
        assert len(listed) == len(CH_FAMILY_FACETS) == 13
        assert hull == listed

    def test_facet_table_is_the_one_inequalities_holds(self):
        assert models.CH_FAMILY_FACETS is inequalities.CH_FAMILY_FACETS

    def test_least_slack_facet_names_the_lower_ch_bound(self):
        # the upper CH verdict holds at this point; the lower CH bound does not
        ps = ProbabilitySet(0.5, 0.5, 0.006, 0.0065, 0.0062, 0.41)
        verdict = least_slack_facet(ps)
        assert (verdict.name, verdict.rhs) == ("CH-lower", 1.0)
        assert verdict.lhs == pytest.approx(1.3913, abs=1e-12)
        assert verdict.violated and verdict.genuine
        assert not ch_report(ps).violated
        assert scan_ch_family(ps) == verdict == joint_feasibility(ps).certificate

    def test_tables_are_read_only(self):
        for table in (models.OUTCOME_VERTICES, models._FEASIBILITY_A_EQ):
            with pytest.raises(ValueError):
                table[0, 0] = 0.5

    def test_lp_matches_per_outcome_construction(self):
        selectors = (
            lambda a, c, b, d: 1,
            lambda a, c, b, d: a,
            lambda a, c, b, d: b,
            lambda a, c, b, d: a and b,
            lambda a, c, b, d: a and d,
            lambda a, c, b, d: c and b,
            lambda a, c, b, d: c and d,
        )
        rows = [[float(bool(sel(*t))) for t in OUTCOME_TUPLES] for sel in selectors]
        assert models._FEASIBILITY_A_EQ.tobytes() == np.array(rows).tobytes()
        assert models.OUTCOME_VERTICES.tobytes() == VERTICES.tobytes()

    @pytest.mark.parametrize("facet", CH_FAMILY_FACETS, ids=FACET_IDS)
    def test_facet_centroid_is_feasible_and_just_outside_is_not(self, facet):
        name, coeff, offset = facet
        on_facet = VERTICES[VERTICES @ np.array(coeff, dtype=float) == offset]
        centroid = on_facet.mean(axis=0)
        result = joint_feasibility(ProbabilitySet(*centroid))
        assert isinstance(result, Feasible)
        np.testing.assert_allclose(witness_point(result.witness), centroid, rtol=0, atol=1e-9)

        outside = centroid + 1e-6 * np.array(coeff) / np.linalg.norm(coeff)
        try:
            ps = ProbabilitySet(*outside)
        except ValueError:
            return  # outside the range ProbabilitySet accepts
        result = joint_feasibility(ps)
        assert isinstance(result, Infeasible)
        assert result.certificate.name == name
        assert result.certificate.lhs > result.certificate.rhs

    @pytest.mark.parametrize("facet", CH_FAMILY_FACETS, ids=FACET_IDS)
    def test_scan_passes_a_point_within_pair_tol_and_names_the_facet_beyond(self, facet):
        name, coeff, offset = facet
        normal = np.array(coeff, dtype=float)
        centroid = VERTICES[VERTICES @ normal == offset].mean(axis=0)
        for outside in (PAIR_TOL / 2, 2 * PAIR_TOL, 1e-6):
            # coeff . point = offset + outside
            point = centroid + outside * normal / (normal @ normal)
            try:
                ps = ProbabilitySet(*point)
            except ValueError:
                assert name not in CROSSABLE_FACETS
                continue
            cert = scan_ch_family(ps)
            if outside < PAIR_TOL:
                assert cert is None
            else:
                assert cert.name == name
                assert cert.margin == pytest.approx(-outside, rel=1e-6)

    def test_every_refusal_on_the_grid_names_a_violated_facet(self):
        # the first 1000 draws of the point stream of acceptance criterion 6
        rng = np.random.default_rng(8_2026)
        grid = np.linspace(0.0, 1.0, 5)
        refused = 0
        for _ in range(1000):
            p_a, p_b = rng.choice(grid, size=2)
            pairs = rng.choice(grid, size=4) * min(p_a, p_b)
            try:
                ps = ProbabilitySet(p_a, p_b, *pairs)
            except ValueError:
                continue
            result = joint_feasibility(ps)
            if isinstance(result, Infeasible):
                refused += 1
                assert result.certificate.name in FACET_IDS
                assert result.certificate.lhs > result.certificate.rhs
                assert result.certificate.violated and result.certificate.genuine
                # the scan names the same facet, with the same sides
                assert scan_ch_family(ps) == result.certificate
            else:
                assert scan_ch_family(ps) is None
        assert refused > 0


class TestDirectSolve:
    def test_matches_milp_bit_for_bit(self, rng):
        # scipy's milp hands HiGHS the same LP through its own front-end: it
        # is the oracle of the direct solve, on identical inputs
        from scipy.optimize import milp

        from bellkit import search

        lp = search._search_lp()
        problems = []
        for eta in [k / 100 for k in range(10, 101)] + [1.001e-9]:
            a_eq = np.where(np.isnan(lp.a_eq), -eta, lp.a_eq)
            problems.append((lp.c, a_eq, lp.b_eq, math.inf))
        n_search = len(problems)
        levels = np.linspace(0.0, 1.0, 5)
        for _ in range(600):
            model_point = probability_set_from_model(random_model(rng)).as_dict().values()
            p_a, p_b = rng.choice(levels, size=2)
            grid_point = (p_a, p_b, *(rng.choice(levels, size=4) * min(p_a, p_b)))
            for point in (model_point, grid_point):
                b_eq = np.array((1.0, *point))
                problems.append((np.zeros(16), models._FEASIBILITY_A_EQ, b_eq, 1.0))
        statuses = []
        for c, a_eq, b_eq, upper in problems:
            status, x, _ = solve_equality_lp(c, a_eq, b_eq, upper)
            res = milp(
                c, constraints=(a_eq, b_eq, b_eq), bounds=(0.0, upper),
                options={"presolve": False},
            )
            assert (status == 0) == (res.status == 0)
            if status == 0:
                assert x.tobytes() == res.x.tobytes()
            else:
                assert x is None
            statuses.append(status)
        # every search LP and model point is solved; some grid points are not
        assert set(statuses[:n_search]) == set(statuses[n_search::2]) == {0}
        assert 0 < statuses[n_search + 1::2].count(2) < 600


class TestChHoldsForFactorizableModels:
    def test_random_models_never_violate(self, rng):
        for _ in range(500):
            ps = probability_set_from_model(random_model(rng))
            assert ch_report(ps).margin >= -1e-10
            assert scan_ch_family(ps) is None


class TestSerialization:
    def test_deeply_nested_model_file_names_the_file(self, tmp_path, capsys):
        from bellkit import cli

        path = tmp_path / "model.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ValueError, match="JSON nested too deeply"):
            cli.load_json(path)
        assert cli.main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply to read\n"

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_undecodable_model_file_names_the_file_and_line(self, tmp_path, capsys, bom, newline):
        # the first cell name, "c0", is on line 3 of the indented document;
        # a Latin-1 e-acute there is not UTF-8
        from bellkit import cli

        text = json.dumps(model_json(uniform_model(n_cells=2)), indent=2)
        body = bom + text.encode().replace(b'"c0"', b'"c\xe9"').replace(b"\n", newline)
        path = tmp_path / "model.json"
        path.write_bytes(body)
        assert cli.main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}, line 3: not valid UTF-8 (byte 0xe9)\n"

    def test_json_round_trip(self, rng):
        model = random_model(rng)
        restored = FactorizableModel.from_json(model_json(model))
        assert restored.space.cells == model.space.cells
        np.testing.assert_allclose(restored.space.weights, model.space.weights)
        np.testing.assert_allclose(restored.response1.values, model.response1.values)
        np.testing.assert_allclose(restored.response2.values, model.response2.values)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: [1, 2], "top-level value must be an object, found [1, 2]"),
            (
                lambda d: {**d, "weights": [str(w) for w in d["weights"]]},
                "field weights[0] must be a finite number, found \"",
            ),
            (lambda d: {k: v for k, v in d.items() if k != "side2"}, "field side2 is missing"),
            (
                lambda d: {**d, "side1": {**d["side1"], "table": [[0.5, 0.5], [0.5]]}},
                "field side1.table[1] holds 1 entries, not one per setting (2)",
            ),
            (
                lambda d: {**d, "side2": {**d["side2"], "settings": "BD"}},
                'field side2.settings must be a list, found "BD"',
            ),
            (lambda d: {**d, "weights": [math.nan, 1.0]}, "field weights[0] must be a finite"),
        ],
        ids=["list", "string-weights", "no-side2", "ragged-table", "string-settings", "nan"],
    )
    def test_malformed_model_names_the_field(self, tmp_path, capsys, edit, message):
        from bellkit import cli

        model = model_json(uniform_model(n_cells=2))
        with pytest.raises(ValueError) as exc:
            FactorizableModel.from_json(edit(model))
        assert str(exc.value).startswith(message)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(edit(model)))
        assert cli.main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    # Each form of MODEL_SCHEMA's check message, whole (the schema has no
    # fixed-length list and no alternative); the field is reached by keys
    # from the top, and None as the keys replaces the whole document
    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (None, "model", 'top-level value must be an object, found "model"'),
            (("side1", "table", 1, 0), "x",
             'field side1.table[1][0] must be a finite number, found "x"'),
            (("side2", "settings", 0), 7, "field side2.settings[0] must be a string, found 7"),
            (("side1", "table", 0), 0.5, "field side1.table[0] must be a list, found 0.5"),
            (("side1", "table"), None, "field side1.table is missing"),
            (("weights", 1), True, "field weights[1] must be a finite number, found true"),
            (("weights", 0), math.nan, "field weights[0] must be a finite number, found NaN"),
            (("side1", "extra"), {"x": [math.inf]},
             "field side1.extra.x[0] must be a finite number, found Infinity"),
        ],
        ids=["top-level", "deep-type", "deep-string", "row-type", "nested-missing",
             "weight-item", "weight-nan", "unlisted-nested"],
    )
    def test_malformed_model_check_message_for_every_form(self, keys, value, message):
        data = model_json(uniform_model(n_cells=2))
        if keys is None:
            data = value
        else:
            target = data
            for key in keys[:-1]:
                target = target[key]
            if value is None:
                del target[keys[-1]]
            else:
                target[keys[-1]] = value
        with pytest.raises(ValueError) as exc:
            FactorizableModel.from_json(data)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "edit, code, output",
        [
            (
                lambda d: {**d, "weights": [0.5, 0.25, 0.25]},
                1,
                ("", "error: field weights holds 3 entries, not one per cell (2)\n"),
            ),
            (
                lambda d: {**d, "side2": {**d["side2"], "table": [[0.5, 0.5]]}},
                1,
                ("", "error: field side2.table holds 1 rows, not one per cell (2)\n"),
            ),
            (
                lambda d: {
                    "cells": [],
                    "weights": [],
                    "side1": {**d["side1"], "table": []},
                    "side2": {**d["side2"], "table": []},
                },
                0,
                (
                    json.dumps(
                        {
                            "valid": False,
                            "violations": [
                                {"kind": "normalization", "where": "weights", "amount": 1.0}
                            ],
                        },
                        indent=2,
                    )
                    + "\n",
                    "",
                ),
            ),
        ],
        ids=["weights", "table-rows", "no-cells"],
    )
    def test_cell_count_mismatch_names_the_field(self, tmp_path, capsys, edit, code, output):
        # a count that differs from the cells is an input error naming the
        # field; no cells at all is a model whose weights do not sum to 1
        from bellkit import cli

        path = tmp_path / "model.json"
        path.write_text(json.dumps(edit(model_json(uniform_model(n_cells=2)))))
        assert cli.main(["validate", str(path)]) == code
        assert capsys.readouterr() == output
