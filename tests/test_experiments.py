import math
import re

import numpy as np
import pytest

from bellkit.experiments import (
    CascadeConfig,
    PdcConfig,
    bi1_min_efficiency,
    bi_margin,
    cascade_bi_maximum,
    cascade_optics,
    cascade_rates,
    predicted_probability_set,
    prediction_reports,
    spacelike_constraints,
    two_channel_rates,
)
from bellkit.inequalities import TwoChannelCounts, renormalized_correlation

SQRT2 = math.sqrt(2.0)


class TestCascadeOptics:
    def test_half_aperture(self):
        eta, v = cascade_optics(math.acos(0.5), 1.0)
        assert eta == pytest.approx(0.25)
        assert v == pytest.approx(1 - 2 / 3 * 0.25)

    def test_small_aperture_limit(self):
        eta, v = cascade_optics(1e-6, 1.0)
        assert eta == pytest.approx(0.0, abs=1e-12)
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_full_aperture(self):
        eta, v = cascade_optics(math.pi / 2, 1.0)
        assert eta == pytest.approx(0.5)
        assert v == pytest.approx(1 / 3)

    def test_monotonicity_in_theta(self):
        thetas = np.linspace(0.01, math.pi / 2, 200)
        etas, vs = zip(*[cascade_optics(t, 1.0) for t in thetas])
        assert all(b > a for a, b in zip(etas, etas[1:]))
        assert all(b < a for a, b in zip(vs, vs[1:]))


class TestCascadeRates:
    def test_aligned_polarizers(self):
        _, _, r12 = cascade_rates(eta=0.3, v=0.9, alpha=1.0, phi=0.0)
        assert r12 == pytest.approx(0.25 * 0.09 * 1.9)

    def test_low_efficiency_scale(self):
        r1, r2, r12 = cascade_rates(eta=1e-4, v=0.85, alpha=1.0, phi=0.0)
        assert r1 == r2 == pytest.approx(5e-5)
        assert r12 == pytest.approx(4.625e-9)

    def test_zero_visibility_flat(self):
        values = {cascade_rates(0.2, 0.0, 1.0, phi)[2] for phi in (0.0, 0.4, 1.1)}
        assert len(values) == 1


class TestTwoChannelRates:
    def test_perfect_visibility_aligned(self):
        cfg = PdcConfig(v=1.0, eta=0.2, r0=1.0)
        rpp, rpm, rmp, rmm = two_channel_rates(cfg, 0.0)
        assert rpm == rmp == 0.0
        assert rpp == rmm == pytest.approx(0.2)

    def test_quarter_angle_equalizes(self):
        cfg = PdcConfig(v=0.9, eta=0.2, r0=1.0)
        rates = two_channel_rates(cfg, math.pi / 4)
        assert all(r == pytest.approx(0.1, abs=1e-15) for r in rates)

    def test_total_rate_is_angle_independent(self):
        cfg = PdcConfig(v=0.7, eta=0.35, r0=2.5)
        for phi in np.linspace(-math.pi, math.pi, 101):
            assert sum(two_channel_rates(cfg, phi)) == pytest.approx(
                2 * cfg.eta * cfg.r0, abs=1e-12
            )

    def test_renormalized_correlation_round_trip(self):
        cfg = PdcConfig(v=0.8, eta=0.05, r0=3.0)
        for phi in np.linspace(0, math.pi / 2, 31):
            tc = TwoChannelCounts(*two_channel_rates(cfg, phi))
            assert renormalized_correlation(tc) == pytest.approx(
                cfg.v * math.cos(2 * phi), abs=1e-12
            )


class TestBiMargin:
    def test_low_efficiency_fulfilled(self):
        lhs, fulfilled = bi_margin(1.0, 1e-4, 0.85)
        assert lhs == pytest.approx(2.2021e-4, rel=1e-4)
        assert fulfilled

    def test_boundary_visibility(self):
        lhs, _ = bi_margin(1.0, 1.0, SQRT2 / 2)
        assert lhs == pytest.approx(2.0, abs=1e-12)

    def test_ideal_detectors_violate(self):
        lhs, fulfilled = bi_margin(1.0, 1.0, 0.85)
        assert lhs == pytest.approx(2.2021, rel=1e-4)
        assert not fulfilled


class TestMinEfficiency:
    def test_perfect_visibility_threshold(self):
        assert bi1_min_efficiency(1.0) == pytest.approx(2 * (SQRT2 - 1), abs=1e-12)

    def test_boundary_visibility_requires_perfect_detection(self):
        assert bi1_min_efficiency(SQRT2 / 2) == pytest.approx(1.0, abs=1e-12)

    def test_intermediate_value(self):
        assert bi1_min_efficiency(0.9) == pytest.approx(2 / (1 + SQRT2 * 0.9), abs=1e-12)
        assert bi1_min_efficiency(0.9) == pytest.approx(0.88, abs=5e-3)

    def test_below_boundary_has_no_threshold(self):
        assert bi1_min_efficiency(0.5) is None

    @pytest.mark.parametrize("v", [math.nan, 1.5])
    def test_nan_or_above_one_is_an_error(self, v):
        with pytest.raises(ValueError, match=r"^V = .* must be a number at most 1$"):
            bi1_min_efficiency(v)

    def test_inverse_consistency_with_bi_margin(self):
        for v in np.linspace(SQRT2 / 2 + 1e-9, 1.0, 100):
            lhs, _ = bi_margin(1.0, bi1_min_efficiency(v), v)
            assert lhs == pytest.approx(2.0, abs=1e-12)


class TestCascadeBiMaximum:
    def test_single_detector_maximum(self):
        max_lhs, theta_star = cascade_bi_maximum(1.0)
        assert max_lhs == pytest.approx(0.7436, abs=1e-3)
        assert 1 - math.cos(theta_star) == pytest.approx(0.9239, abs=1e-4)

    def test_linear_in_zeta(self):
        full, _ = cascade_bi_maximum(1.0)
        half, _ = cascade_bi_maximum(0.5)
        assert half == pytest.approx(full / 2, abs=1e-9)

    def test_never_reaches_the_bound(self):
        # even with both detectors, which doubles the maximum
        for zeta in np.linspace(0.05, 1.0, 20):
            assert 2 * cascade_bi_maximum(zeta)[0] < 2.0


class TestSourceConfigs:
    def test_r0_defaults_to_one(self):
        # the [pdc] r0 a config without one reads
        assert PdcConfig(v=0.9, eta=0.1).r0 == 1.0

    @pytest.mark.parametrize("r0", [0.0, -1.0, math.nan, math.inf])
    def test_r0_must_be_finite_and_positive(self, r0):
        with pytest.raises(ValueError, match="r0 = .* must be finite and positive"):
            PdcConfig(v=0.9, eta=0.1, r0=r0)
        with pytest.raises(ValueError, match="alpha = .* must be finite and positive"):
            CascadeConfig(theta=0.5, zeta=0.2, alpha=r0)

    @pytest.mark.parametrize("zeta", [0.0, -0.1, 1.5, math.nan])
    def test_zeta_outside_the_range_cascade_bi_maximum_takes(self, zeta):
        # the same range (0, 1] as cascade_bi_maximum, which predict calls
        with pytest.raises(ValueError, match=r"^zeta = .* outside \(0, 1\]$"):
            CascadeConfig(theta=0.5, zeta=zeta)
        with pytest.raises(ValueError, match=r"^zeta = .* outside \(0, 1\]$"):
            cascade_bi_maximum(zeta)

    @pytest.mark.parametrize(
        "theta, zeta",
        [(0.5, 0.2), (math.pi / 3, 0.2), (0.3, 0.9), (math.pi / 2, 1.0), (0.1, 0.5)],
    )
    def test_alpha_bound_is_one_over_eta(self, theta, zeta):
        # with one polarizer removed the coincidences alpha eta^2 / 2 may not
        # exceed the singles eta / 2, which prediction_reports would hand to
        # fc_report; the polarizer coincidences eta^2 alpha (1 + V cos 2phi) / 4
        # peak at |phi| = pi/8 and reach the singles only at a larger alpha
        eta, v = cascade_optics(theta, zeta)
        polarizer_bound = 2.0 / (eta * (1.0 + v * math.cos(math.pi / 4)))
        assert 1.0 / eta < polarizer_bound
        predicted_probability_set(eta, v, polarizer_bound * (1 - 1e-6))
        with pytest.raises(ValueError, match="exceeds marginal"):
            predicted_probability_set(eta, v, polarizer_bound * (1 + 1e-6))
        assert CascadeConfig(theta, zeta, alpha=1.0 / eta).alpha * eta == pytest.approx(1.0)
        with pytest.raises(ValueError) as exc:
            CascadeConfig(theta, zeta, alpha=(1.0 / eta) * (1 + 1e-12))
        stated = re.fullmatch(
            r"alpha = \S+ exceeds 1/eta = (\S+), the largest value at which "
            "no coincidence probability exceeds the singles",
            str(exc.value),
        )
        assert stated and float(stated[1]) == 1.0 / eta

    def test_theta_whose_eta_underflows_to_zero_is_accepted(self):
        # 1 - cos(theta) is 0.0 in floats: nothing is detected, so no alpha
        # can put a coincidence above the singles
        theta = 6.343583964094231e-52
        assert cascade_optics(theta, 0.2)[0] == 0.0
        assert CascadeConfig(theta, 0.2, alpha=0.9).alpha == 0.9


class TestCascadeReports:
    def test_genuine_and_auxiliary_verdicts_from_one_config(self):
        cfg = CascadeConfig(theta=math.pi / 3, zeta=0.2)
        ch, fc = prediction_reports(*cascade_optics(cfg.theta, cfg.zeta), cfg.alpha)
        assert ch.genuine and not fc.genuine
        assert ch.lhs == fc.lhs


class TestSpacelikeConstraints:
    SODIUM = {"mass": 3.818e-26, "speed": 3000.0, "separation": 1.0, "measure_time": 1e-4}

    def test_measurement_time_separation(self):
        result = spacelike_constraints(**self.SODIUM)
        assert result.l_meas == pytest.approx(2.99792458e4, rel=1e-9)

    def test_minimum_distance(self):
        result = spacelike_constraints(**self.SODIUM)
        assert result.l_min == pytest.approx(1.84e-2, rel=1e-2)

    def test_arrival_time_spread(self):
        result = spacelike_constraints(**self.SODIUM)
        assert result.dt_arrival == pytest.approx(4.52e-10, rel=1e-2)

    def test_optional_fields_absent(self):
        result = spacelike_constraints(mass=1e-26, speed=1000.0)
        assert result.dt_arrival is None and result.l_meas is None

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="^mass = -1.0 must be finite and positive$"):
            spacelike_constraints(mass=-1.0, speed=100.0)
        with pytest.raises(ValueError, match=r"^speed must be in \(0, c\)$"):
            spacelike_constraints(mass=1e-26, speed=4e8)
        # each non-finite or non-positive value is refused by name, not
        # turned into a nan, a zero, a negative length or a math domain error
        for field, value in (
            ("mass", math.nan),
            ("mass", math.inf),
            ("mass", 0.0),
            ("separation", -1.0),
            ("separation", 0.0),
            ("separation", math.nan),
            ("separation", math.inf),
            ("measure_time", -1.0),
            ("measure_time", 0.0),
            ("measure_time", math.nan),
            ("measure_time", math.inf),
        ):
            inputs = {"mass": 1e-26, "speed": 1000.0, field: value}
            with pytest.raises(ValueError, match=f"^{field} = "):
                spacelike_constraints(**inputs)
