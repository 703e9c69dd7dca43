import itertools
import json
import math

import numpy as np
import pytest

from bellkit.inequalities import TwoChannelCounts
from bellkit.models import (
    FactorizableModel,
    HiddenVariableSpace,
    ResponseTable,
    joint_probability,
    validate_model,
)
from bellkit import search
from bellkit.search import (
    OUTCOMES,
    PAIRS,
    STRATEGIES,
    StrategyMixture,
    maximize_s_star,
    mixture_statistics,
    sample_counts,
)
import local_lp

# The strategies of one side written out independently of the module: an
# outcome at each of the two settings, in product order.
REFERENCE_STRATEGIES = list(itertools.product(("+", "-", "u"), repeat=2))

# An outcome's sign in a correlation: 0 where the side does not detect.
SIGN = {"+": 1, "-": -1, "u": 0}


def search_observables(s, t):
    """Of a strategy pair: its CHSH sum E(A,B) + E(A,D) + E(C,B) - E(C,D),
    its (A, B) coincidence, then the rows of the search: the normalization,
    detection at A, C, B and D, and the (A, B) coincidence less that of
    (A, D), (C, B) and (C, D) in turn."""
    e = [SIGN[s[x]] * SIGN[t[y]] for x in (0, 1) for y in (0, 1)]
    coincidence = [s[x] != "u" and t[y] != "u" for x in (0, 1) for y in (0, 1)]
    detected = [o != "u" for o in (*s, *t)]
    return [e[0] + e[1] + e[2] - e[3], coincidence[0], 1, *detected,
            *(coincidence[0] - c for c in coincidence[1:])]


def search_lp(eta):
    """(num, den, a_eq, b_eq) of the detection search at efficiency eta:
    S* = num.w / den.w, the four pairs with equal coincidence totals."""
    m = local_lp.pair_matrix(REFERENCE_STRATEGIES, REFERENCE_STRATEGIES, search_observables)
    return m[0], m[1], m[2:], np.array([1.0, eta, eta, eta, eta, 0.0, 0.0, 0.0])


LARSSON_ETAS = [k / 20 for k in range(2, 21)]


def test_strategies_are_the_nine_outcome_pairs_in_product_order():
    assert STRATEGIES == tuple(REFERENCE_STRATEGIES)


def uniform_mixture():
    return StrategyMixture(np.full((9, 9), 1 / 81))


def point_mass(outcomes1, outcomes2):
    w = np.zeros((9, 9))
    w[REFERENCE_STRATEGIES.index(outcomes1), REFERENCE_STRATEGIES.index(outcomes2)] = 1.0
    return StrategyMixture(w)


class TestMixtureStatistics:
    def test_point_mass_always_plus(self):
        stats = mixture_statistics(point_mass(("+", "+"), ("+", "+")))
        for x, y in PAIRS:
            assert stats[(x, y)][0, 0] == 1.0

    def test_uniform_mixture_by_explicit_enumeration(self):
        # independent count: strategies fixing one outcome at one setting
        expected = sum(
            1 for a, b in itertools.product(REFERENCE_STRATEGIES, repeat=2) if a[0] == b[0] == "+"
        ) / 81
        stats = mixture_statistics(uniform_mixture())
        for entry in stats[("A", "B")][:2, :2].ravel():
            assert entry == pytest.approx(expected, abs=1e-15)

    def test_parameter_independence_within_rounding(self):
        # side 1's outcome distribution at X, the row sums of its tables,
        # does not depend on the setting side 2 chose
        rng = np.random.default_rng(7)
        for _ in range(200):
            stats = mixture_statistics(StrategyMixture(rng.dirichlet(np.ones(81)).reshape(9, 9)))
            for x in ("A", "C"):
                gap = stats[(x, "B")].sum(axis=1) - stats[(x, "D")].sum(axis=1)
                assert np.abs(gap).max() <= 1e-15

    def test_tables_are_read_only(self):
        stats = mixture_statistics(uniform_mixture())
        for table in stats.values():
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.5

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            StrategyMixture(np.full((9, 9), 0.5))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^mixture weights sum to {bad}, not 1$"):
                StrategyMixture(np.full((9, 9), bad))

    def test_rounding_residue_weight_is_clipped_to_zero(self):
        # a weight of -8e-17 is what rounding leaves on the boundary of a
        # closed-form mixture; alone on (++, ++) it would make every
        # coincidence table entry p++ negative
        assert REFERENCE_STRATEGIES[0] == ("+", "+")
        assert REFERENCE_STRATEGIES[4] == ("-", "-")
        w = np.zeros((9, 9))
        w[0, 0], w[4, 4] = -8e-17, 1.0
        mixture = StrategyMixture(w)
        assert mixture.weights.min() == 0.0 and not mixture.weights.flags.writeable
        stats = mixture_statistics(mixture)
        for x, y in PAIRS:
            assert stats[(x, y)][0, 0] == 0.0
        with pytest.raises(ValueError, match="negative mixture weight"):
            StrategyMixture(np.where(w < 0, -2e-10, w))

    @pytest.mark.parametrize("shape", [(27, 27), (9, 3), (81,), (9, 9, 1)])
    def test_rejects_weights_of_the_wrong_shape(self, shape):
        weights = np.full(shape, 1 / math.prod(shape))
        with pytest.raises(ValueError, match=r"must have shape \(9, 9\), not "):
            StrategyMixture(weights)

    def test_marginals_match_per_strategy_sum(self):
        # reference: every weight of a strategy pair whose side-1 strategy
        # gives outcome o, summed exactly
        rng = np.random.default_rng(13)
        for alpha in (0.05, 1.0, 5.0):
            mixture = StrategyMixture(rng.dirichlet(np.full(81, alpha)).reshape(9, 9))
            stats = mixture_statistics(mixture)
            for xi, x in enumerate("AC"):
                expected = tuple(
                    math.fsum(
                        float(mixture.weights[i, j])
                        for i, a in enumerate(REFERENCE_STRATEGIES)
                        if a[xi] == o
                        for j in range(9)
                    )
                    for o in OUTCOMES
                )
                for y in "BD":
                    rows = stats[(x, y)].sum(axis=1)
                    np.testing.assert_allclose(rows, expected, rtol=0, atol=1e-15)

    def test_matches_per_strategy_pair_reference(self):
        # reference: each pair's weight w[i, j] accumulated into the table
        # cell of its two outcomes, every cell then summed exactly; dense
        # mixtures and ~70 % zero weights
        rng = np.random.default_rng(17)
        s1 = s2 = REFERENCE_STRATEGIES
        worst = 0.0
        for k in range(200):
            w = rng.dirichlet(np.ones(81)).reshape(9, 9)
            if k % 2:
                w = np.where(rng.random((9, 9)) < 0.7, 0.0, w)
                w = w / w.sum()
            terms = {}
            for (i, a), (j, b) in itertools.product(enumerate(s1), enumerate(s2)):
                for (xi, x), (yi, y) in itertools.product(enumerate("AC"), enumerate("BD")):
                    cell = (x, y, OUTCOMES.index(a[xi]), OUTCOMES.index(b[yi]))
                    terms.setdefault(cell, []).append(w[i, j])
            stats = mixture_statistics(StrategyMixture(w))
            assert len(stats) == 4
            for (x, y, oi, oj), cell in terms.items():
                worst = max(worst, abs(stats[(x, y)][oi, oj] - math.fsum(cell)))
        assert worst <= 1e-15


def array_valued_instances() -> dict[str, tuple]:
    """For each frozen dataclass that holds arrays: two equal instances
    built from separate arrays, and a third with one entry changed."""
    w = np.full((9, 9), 1 / 81)
    w_changed = w.copy()
    w_changed[0, 0] += 1e-12
    table = np.array([[0.5, 0.25], [1.0, 0.0]])
    table_changed = table.copy()
    table_changed[1, 1] = 0.75
    cells = ("c0", "c1")
    return {
        "StrategyMixture": (
            StrategyMixture(w), StrategyMixture(w.copy()), StrategyMixture(w_changed)
        ),
        "HiddenVariableSpace": (
            HiddenVariableSpace(cells, table[1]),
            HiddenVariableSpace(cells, table[1].copy()),
            HiddenVariableSpace(cells, table_changed[1]),
        ),
        "ResponseTable": (
            ResponseTable(1, ("A", "C"), table),
            ResponseTable(1, ("A", "C"), table.copy()),
            ResponseTable(1, ("A", "C"), table_changed),
        ),
    }


@pytest.mark.parametrize("name", ["StrategyMixture", "HiddenVariableSpace", "ResponseTable"])
def test_array_valued_types_compare_by_value(name):
    a, b, changed = array_valued_instances()[name]
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b
    assert a != changed and not a == changed
    assert a != name


def mixture_to_model(m: StrategyMixture) -> FactorizableModel:
    """Lossless conversion: one hidden-variable cell per strategy pair.

    The yes/no observable is detection in the + channel, so '-' and 'u'
    both map to response 0.
    """
    n = len(REFERENCE_STRATEGIES)
    cells = tuple(f"s{i}x{j}" for i in range(n) for j in range(n))
    plus = np.array([[float(o == "+") for o in s] for s in REFERENCE_STRATEGIES])
    space = HiddenVariableSpace(cells, m.weights.reshape(-1))
    r1 = ResponseTable(1, ("A", "C"), np.repeat(plus, n, axis=0))
    r2 = ResponseTable(2, ("B", "D"), np.tile(plus, (n, 1)))
    return FactorizableModel(space, r1, r2)


class TestMixtureToModel:
    def test_tables_match_per_cell_construction(self):
        rng = np.random.default_rng(5)
        mixture = StrategyMixture(rng.dirichlet(np.ones(81)).reshape(9, 9))
        model = mixture_to_model(mixture)
        plus = lambda s: [float(o == "+") for o in s]
        cells = list(itertools.product(REFERENCE_STRATEGIES, REFERENCE_STRATEGIES))
        assert model.response1.values.tobytes() == np.array([plus(a) for a, _ in cells]).tobytes()
        assert model.response2.values.tobytes() == np.array([plus(b) for _, b in cells]).tobytes()
        assert model.space.weights.tobytes() == mixture.weights.tobytes()

    def test_conversion_is_valid_and_consistent(self):
        rng = np.random.default_rng(3)
        mixture = StrategyMixture(rng.dirichlet(np.ones(81)).reshape(9, 9))
        model = mixture_to_model(mixture)
        assert validate_model(model).valid
        stats = mixture_statistics(mixture)
        for x, y in PAIRS:
            assert joint_probability(model, x, y) == pytest.approx(
                stats[(x, y)][0, 0], abs=1e-12
            )


class TestMaximizeSStar:
    def test_full_efficiency_recovers_local_bound(self):
        result = maximize_s_star(1.0)
        assert result.s_star_max == pytest.approx(2.0, abs=1e-6)

    def test_below_threshold_efficiency_exceeds_bound(self):
        result = maximize_s_star(0.8)
        assert result.s_star_max > 2.0
        assert result.genuine_s <= 2.0 + 1e-8

    def test_low_efficiency_approaches_algebraic_maximum(self):
        result = maximize_s_star(0.1)
        assert result.s_star_max > 3.9

    def test_marginal_detection_constraint_honored(self):
        # side 1 detects at X in the +/- rows of table (X, Y), side 2 at Y
        # in its +/- columns
        result = maximize_s_star(0.6)
        stats = mixture_statistics(result.mixture)
        for pair, table in stats.items():
            assert table[:2].sum() == pytest.approx(0.6, abs=1e-7), pair
            assert table[:, :2].sum() == pytest.approx(0.6, abs=1e-7), pair

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            maximize_s_star(0.0)

    def test_eta_at_the_solver_floor_is_an_input_error(self):
        # the LP loses eta at 1e-9 and below, which ended in SearchFailure
        for eta in (1e-9, 5e-324):
            with pytest.raises(ValueError, match=r"outside \(1e-9, 1\]"):
                maximize_s_star(eta)
        assert maximize_s_star(1.001e-9).s_star_max == pytest.approx(4.0, abs=1e-9)

    def test_solution_off_an_equality_row_is_a_search_failure(self, solver_off_one_row):
        # the solver reports an optimum that misses the denominator row by
        # 1e-3; the post-solve residual check refuses it
        with pytest.raises(search.SearchFailure, match="LP solver status 4"):
            maximize_s_star(0.8)
        assert solver_off_one_row == ["kOptimal"]

    @pytest.mark.parametrize("eta", LARSSON_ETAS)
    def test_matches_larsson_closed_form(self, eta):
        # Larsson's bound 4/eta_c - 2 at the worst-case conditional
        # efficiency eta_c = (2 eta - 1)/eta is 2/(2 eta - 1), capped at the
        # algebraic maximum 4 (reached for every eta <= 3/4)
        expected = 4.0 if eta <= 0.75 else 2.0 / (2.0 * eta - 1.0)
        result = maximize_s_star(eta)
        assert abs(result.s_star_max - expected) <= 1e-9
        assert result.genuine_s <= 2.0 + 1e-8

    def test_matches_the_local_model_lp(self):
        # every eta of the closed-form test above and of acceptance criterion 7
        etas = {*LARSSON_ETAS, 1.0, 0.8, *map(float, np.linspace(0.1, 1.0, 10))}
        for eta in sorted(etas):
            expected = local_lp.max_ratio(*search_lp(eta))
            assert abs(maximize_s_star(eta).s_star_max - expected) <= 1e-12, eta


class TestCachedSearchStructure:
    def cached_arrays(self):
        lp = search._search_lp()
        yield from (lp.c, lp.a_eq, lp.b_eq, search._INDICATORS)

    def test_cached_arrays_are_read_only(self):
        arrays = list(self.cached_arrays())
        assert len(arrays) == 4
        assert search._INDICATORS.flags.c_contiguous
        for a in arrays:
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0.5

    def test_lp_matches_the_local_model_lp(self):
        lp = search._search_lp()
        # the four eta entries: the tau column of the detection rows
        tau = len(REFERENCE_STRATEGIES) ** 2
        assert np.argwhere(np.isnan(lp.a_eq)).tolist() == [[k, tau] for k in range(1, 5)]
        for eta in LARSSON_ETAS:
            c, a_eq, b_eq = local_lp.ratio_lp(*search_lp(eta))
            # bytes compare the sign of each zero too
            assert lp.c.tobytes() == c.tobytes()
            assert lp.b_eq.tobytes() == b_eq.tobytes()
            assert np.where(np.isnan(lp.a_eq), -eta, lp.a_eq).tobytes() == a_eq.tobytes()

    def test_table_is_built_once_and_never_written(self):
        search._search_lp.cache_clear()
        try:
            a_eq = search._search_lp().a_eq
            data = a_eq.copy()
            for eta in [k / 20 for k in range(2, 21)] * 3:
                maximize_s_star(eta)
            assert search._search_lp.cache_info().misses == 1
            assert search._search_lp().a_eq is a_eq
            # the eta entries still hold nan: bytes, not ==, compare them
            assert a_eq.tobytes() == data.tobytes()
            assert np.isnan(a_eq).sum() == 4
            with pytest.raises(ValueError):
                a_eq[0, 0] = 0.5
        finally:
            search._search_lp.cache_clear()

    def test_repeated_solves_are_identical(self):
        grid = [k / 20 for k in range(2, 21)]
        first = [json.dumps(maximize_s_star(eta).to_json()) for eta in grid]
        again = [json.dumps(maximize_s_star(eta).to_json()) for eta in reversed(grid)]
        assert first == again[::-1]

    @pytest.mark.parametrize("eta", [0.1, 0.6, 0.8, 0.999, 1.0])
    def test_result_follows_from_eta_and_mixture(self, eta):
        # the counts, S* and genuine S of a result are computed from its
        # mixture, so a result rebuilt from the two fields is the same result
        solved = maximize_s_star(eta)
        rebuilt = search.SearchResult(eta, solved.mixture)
        assert rebuilt == solved
        assert json.dumps(rebuilt.to_json()) == json.dumps(solved.to_json())
        assert (rebuilt.s_star_max, rebuilt.genuine_s) == (solved.s_star_max, solved.genuine_s)


class TestSampleCounts:
    @staticmethod
    def statistics(v=1.0, phi_map=None):
        stats = {}
        for x, y in PAIRS:
            phi = 0.0 if phi_map is None else phi_map[(x, y)]
            mod = v * math.cos(2 * phi)
            stats[(x, y)] = TwoChannelCounts(
                (1 + mod) / 4, (1 - mod) / 4, (1 - mod) / 4, (1 + mod) / 4
            )
        return stats

    def test_perfect_visibility_has_no_cross_counts(self):
        ds = sample_counts(self.statistics(v=1.0), 10_000, seed=5)
        for row in ds.rows:
            assert row.n_pm == 0 and row.n_mp == 0
            assert row.n_pp + row.n_mm == 10_000

    def test_frequencies_within_four_sigma(self):
        n = 10**6
        stats = self.statistics(v=0.9, phi_map={p: 0.3 for p in PAIRS})
        ds = sample_counts(stats, n, seed=17)
        for row in ds.rows:
            tc = stats[(row.setting_a, row.setting_b)]
            for count, prob in zip(
                (row.n_pp, row.n_pm, row.n_mp, row.n_mm), (tc.ppp, tc.ppm, tc.pmp, tc.pmm)
            ):
                sigma = math.sqrt(n * prob * (1 - prob))
                assert abs(count - n * prob) <= 4 * sigma

    def test_seed_determinism(self):
        a = sample_counts(self.statistics(v=0.8), 1000, seed=42)
        b = sample_counts(self.statistics(v=0.8), 1000, seed=42)
        assert a.rows == b.rows
        c = sample_counts(self.statistics(v=0.8), 1000, seed=43)
        assert c.rows != a.rows

    def test_seed_recorded(self):
        ds = sample_counts(self.statistics(), 10, seed=9)
        assert ds.seed == 9
        assert "# seed=9" in ds.to_csv()

    @pytest.mark.parametrize(
        "rates", [(0.0, 0.0, 0.0, 0.0), (1e308, 1e307, 1e307, 1e308)], ids=["zero", "overflow"]
    )
    def test_total_that_is_not_finite_and_positive_names_the_pair(self, rates):
        # a total that overflows to inf would make every probability 0, and
        # the multinomial would put every draw into n_mm
        stats = self.statistics()
        stats[("C", "B")] = TwoChannelCounts(*rates)
        with pytest.raises(ValueError, match=r"^pair \(C,B\) has total .*, not finite"):
            sample_counts(stats, 1000, seed=1)
