import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellkit.experiments import CANONICAL_ANGLES, predicted_probability_set, prediction_reports
from bellkit.inequalities import (
    CANONICAL_PAIRS,
    CH_FAMILY_FACETS,
    GENUINE,
    TSIRELSON_BOUND,
    CountRow,
    InequalityReport,
    ProbabilitySet,
    TwoChannelCounts,
    ch_report,
    chsh_sum,
    correlation,
    fc_report,
    renormalized_correlation,
    s_star_report,
)

SQRT2 = math.sqrt(2.0)


def singlet_probability_set() -> ProbabilitySet:
    pairs = [0.5 * math.cos(phi) ** 2 for phi in CANONICAL_ANGLES]
    return ProbabilitySet(0.5, 0.5, *pairs)


class TestChReport:
    def test_singlet_values_violate(self):
        report = ch_report(singlet_probability_set())
        assert report.lhs == pytest.approx((SQRT2 + 1) / 2, abs=1e-12)
        assert report.rhs == pytest.approx(1.0, abs=1e-15)
        assert report.violated
        assert report.genuine

    def test_all_zero_not_violated(self):
        report = ch_report(ProbabilitySet(0, 0, 0, 0, 0, 0))
        assert report.lhs == 0 and report.rhs == 0
        assert not report.violated

    def test_low_efficiency_regime_fulfilled_by_orders_of_magnitude(self):
        # eta ~ 1e-4 makes the pair side quadratically small vs the linear
        # marginal side
        ps = predicted_probability_set(eta=1e-4, v=0.85, alpha=1.0)
        report = ch_report(ps)
        assert report.rhs == pytest.approx(1e-4, rel=1e-12)
        assert 0 < report.lhs < 2.5e-8
        assert report.rhs / report.lhs > 5e3  # ~4 orders of magnitude
        assert not report.violated


class TestCorrelation:
    def test_perfect_correlation(self):
        assert correlation(TwoChannelCounts(0.5, 0, 0, 0.5)) == 1.0

    def test_equal_quarters(self):
        assert correlation(TwoChannelCounts(0.25, 0.25, 0.25, 0.25)) == 0.0

    def test_direct_arithmetic(self):
        assert correlation(TwoChannelCounts(0.2, 0.05, 0.05, 0.2)) == pytest.approx(0.3)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            TwoChannelCounts(0.2, -0.1, 0.05, 0.2)


class TestRenormalizedCorrelation:
    def test_ratio(self):
        assert renormalized_correlation(TwoChannelCounts(0.2, 0.05, 0.05, 0.2)) == pytest.approx(
            0.6
        )

    def test_uniform_scaling_invariance(self):
        tc = TwoChannelCounts(0.2, 0.05, 0.05, 0.2)
        scaled = TwoChannelCounts(0.2 * 0.01, 0.05 * 0.01, 0.05 * 0.01, 0.2 * 0.01)
        assert renormalized_correlation(scaled) == pytest.approx(
            renormalized_correlation(tc), abs=1e-15
        )

    def test_quantum_prediction_at_pi_over_8(self):
        # counts proportional to 1 +/- V cos 2phi at phi = pi/8, V = 1
        mod = math.cos(math.pi / 4)
        tc = TwoChannelCounts(1 + mod, 1 - mod, 1 - mod, 1 + mod)
        assert renormalized_correlation(tc) == pytest.approx(math.cos(math.pi / 4), abs=1e-15)

    def test_all_zero_is_an_error(self):
        with pytest.raises(ZeroDivisionError):
            renormalized_correlation(TwoChannelCounts(0, 0, 0, 0))

    @given(
        entries=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=4, max_size=4
        ).filter(lambda e: sum(e) > 1e-6),
        num=st.integers(min_value=1, max_value=1000),
        den=st.integers(min_value=1, max_value=1000),
    )
    def test_scaling_invariance_property(self, entries, num, den):
        scale = float(Fraction(num, den))
        tc = TwoChannelCounts(*entries)
        scaled = TwoChannelCounts(*(e * scale for e in entries))
        assert abs(renormalized_correlation(scaled) - renormalized_correlation(tc)) <= 1e-15

    @given(
        entries=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=4, max_size=4
        ).filter(lambda e: sum(e) > 0.1)
    )
    def test_agrees_with_plain_correlation_when_normalized(self, entries):
        total = sum(entries)
        tc = TwoChannelCounts(*(e / total for e in entries))
        assert correlation(tc) == pytest.approx(renormalized_correlation(tc), abs=1e-12)


def fraction_s_star(counts) -> Fraction:
    """The oracle: S* in rationals, E* = (n_pp + n_mm - n_pm - n_mp) / n for
    each of (A,B), (A,D), (C,B), (C,D), summed with the signs + + + -."""
    e = [Fraction(pp + mm - pm - mp, pp + pm + mp + mm) for pp, pm, mp, mm in counts]
    return e[0] + e[1] + e[2] - e[3]


def count_rows(counts) -> list[CountRow]:
    return [CountRow(x, y, *c) for (x, y), c in zip(CANONICAL_PAIRS, counts)]


PAIR_COUNTS = st.tuples(*[st.integers(0, 60) | st.integers(0, 10**7)] * 4).filter(any)


class TestSStarReport:
    def test_exactly_two_is_fulfilled(self):
        # the float CHSH sum of the four E* is 2.0000000000000004
        counts = [(20, 2, 0, 0), (48, 5, 0, 0), (30, 3, 0, 0), (422, 161, 0, 0)]
        e = [renormalized_correlation(TwoChannelCounts(*map(float, c))) for c in counts]
        assert fraction_s_star(counts) == 2 and chsh_sum(*e) > 2.0
        report = s_star_report(count_rows(counts))
        assert (report.name, report.lhs, report.rhs, report.violated) == (
            "CHSH-star", 2.0, 2.0, False
        )

    def test_just_above_two_is_violated(self):
        # E* = 1, 1, 1 / (2k + 1) and 0: S* is above 2 by far less than half
        # an ulp, and the float CHSH sum of the four E* is 2.0
        k = 10**17
        counts = [(1, 0, 0, 0), (1, 0, 0, 0), (k + 1, k, 0, 0), (1, 1, 0, 0)]
        e = [renormalized_correlation(TwoChannelCounts(*map(float, c))) for c in counts]
        assert fraction_s_star(counts) > 2 and chsh_sum(*e) == 2.0
        report = s_star_report(count_rows(counts))
        assert report.lhs == math.nextafter(2.0, 3.0)
        assert report.violated

    @given(st.lists(PAIR_COUNTS, min_size=4, max_size=4))
    def test_lhs_is_the_exact_value_correctly_rounded(self, counts):
        exact = fraction_s_star(counts)
        report = s_star_report(count_rows(counts))
        assert report.violated == (exact > 2)
        if not (exact > 2 and float(exact) == 2.0):
            assert report.lhs == float(exact)


class TestFcReport:
    def test_reduces_to_visibility_condition(self):
        # with the predicted probabilities the test collapses to
        # 1 + sqrt2 V <= 2, independent of eta
        _, fc = prediction_reports(eta=1e-4, v=0.85)
        assert 2 * fc.lhs / fc.rhs == pytest.approx(1 + SQRT2 * 0.85, abs=1e-9)
        assert fc.violated
        assert not fc.genuine

    def test_low_visibility_fulfilled(self):
        _, fc = prediction_reports(eta=1e-4, v=0.5)
        assert 2 * fc.lhs / fc.rhs == pytest.approx(1 + SQRT2 * 0.5, abs=1e-9)
        assert not fc.violated

    def test_same_lhs_as_ch(self):
        ps = singlet_probability_set()
        assert fc_report(ps, 0.4, 0.4).lhs == ch_report(ps).lhs


class TestInequalityReport:
    @pytest.mark.parametrize(
        "name, genuine", [("CH", True), ("CH-lower", True), ("CHSH-star", False), ("FC", False)]
    )
    def test_flags_follow_from_the_name_lhs_and_rhs(self, name, genuine):
        above, at = InequalityReport(name, 2.5, 2.0), InequalityReport(name, 2.0, 2.0)
        assert (above.margin, above.violated, above.genuine) == (-0.5, True, genuine)
        assert (at.margin, at.violated, at.genuine) == (0.0, False, genuine)

    def test_unknown_inequality_is_refused(self):
        with pytest.raises(ValueError, match="^unknown inequality 'Bell'$"):
            InequalityReport("Bell", 2.5, 2.0)
        # no verdict of the plain CHSH sum is produced
        with pytest.raises(ValueError, match="^unknown inequality 'CHSH'$"):
            InequalityReport("CHSH", 2.5, 2.0)

    def test_every_facet_is_a_genuine_verdict(self):
        facets = [name for name, _, _ in CH_FAMILY_FACETS]
        assert all(InequalityReport(name, 0.0, 0.0).genuine for name in facets)
        assert list(GENUINE) == [*facets, "CHSH-star", "FC"]


def test_canonical_angles_reach_the_chsh_maximum():
    phi1, phi2, phi3, phi4 = CANONICAL_ANGLES
    assert abs((phi1 + phi4) - (phi2 + phi3)) <= 1e-12
    s = chsh_sum(*(math.cos(2 * phi) for phi in CANONICAL_ANGLES))
    assert abs(s - 2 * SQRT2) <= 1e-12


def test_grid_search_confirms_global_maximum():
    # two-stage grid over (phi1, phi2, phi3) with phi4 = phi2 + phi3 - phi1
    def objective(p1, p2, p3):
        p4 = p2 + p3 - p1
        return np.cos(2 * p1) + np.cos(2 * p2) + np.cos(2 * p3) - np.cos(2 * p4)

    coarse = np.linspace(-math.pi / 2, math.pi / 2, 64)
    g1, g2, g3 = np.meshgrid(coarse, coarse, coarse, indexing="ij")
    values = objective(g1, g2, g3)
    idx = np.unravel_index(values.argmax(), values.shape)
    center = (coarse[idx[0]], coarse[idx[1]], coarse[idx[2]])
    step = coarse[1] - coarse[0]
    fine = [np.linspace(c - step, c + step, 81) for c in center]
    f1, f2, f3 = np.meshgrid(*fine, indexing="ij")
    best = objective(f1, f2, f3).max()
    assert best == pytest.approx(2 * SQRT2, abs=1e-4)


def test_v_b_from_s_star():
    # the report's V_B and predict's expected S* both go through this constant
    assert TSIRELSON_BOUND == 2 * SQRT2
    assert 2.5 / TSIRELSON_BOUND == pytest.approx(0.88388, abs=1e-5)


class TestProbabilitySet:
    def test_pair_above_marginal_rejected(self):
        with pytest.raises(ValueError, match="exceeds marginal"):
            ProbabilitySet(pA=0.3, pB=0.9, pAB=0.5, pAD=0.1, pCB=0.1, pCD=0.1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ProbabilitySet(pA=1.2, pB=0.5, pAB=0.1, pAD=0.1, pCB=0.1, pCD=0.1)

    @pytest.mark.parametrize(
        "pair, marginal", [("pAB", "pA"), ("pAB", "pB"), ("pAD", "pA"), ("pCB", "pB")]
    )
    def test_pair_tolerance_is_relative_to_a_small_marginal(self, pair, marginal):
        # an absolute 1e-9 would let a pair exceed a marginal of 1e-6 by 0.1 %
        values = dict(pA=0.5, pB=0.5, pAB=0.0, pAD=0.0, pCB=0.0, pCD=0.0)
        values[marginal] = 1e-6
        values[pair] = 1e-6 * (1 + 1e-12)
        ProbabilitySet(**values)
        values[pair] = 1e-6 * (1 + 1e-8)
        with pytest.raises(ValueError, match=f"{pair} = .* exceeds marginal {marginal} = 1e-06"):
            ProbabilitySet(**values)

    @pytest.mark.parametrize("marginal", [-1e-9, -1e-12, -0.0, 0.0])
    def test_marginal_rounded_below_zero_allows_zero_pairs(self, marginal):
        ProbabilitySet(pA=marginal, pB=marginal, pAB=0.0, pAD=0.0, pCB=0.0, pCD=0.0)
        with pytest.raises(ValueError, match="exceeds marginal"):
            ProbabilitySet(pA=marginal, pB=0.5, pAB=0.0, pAD=1e-15, pCB=0.0, pCD=0.0)
