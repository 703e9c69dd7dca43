"""Closed-form quantum predictions for photon-pair polarization experiments.

Covers atomic-cascade sources (aperture-dependent efficiency and visibility),
parametric down-conversion two-channel rates, the efficiency thresholds at
which a genuine Bell test becomes possible, and the kinematic spacelike
separation constraints for massive-particle tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .inequalities import (
    CANONICAL_ANGLES,
    InequalityReport,
    ProbabilitySet,
    ch_report,
    chsh_sum,
    fc_report,
)

HBAR = 1.054571817e-34  # J s
C_LIGHT = 2.99792458e8  # m/s

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class CascadeConfig:
    """Atomic-cascade source: lens half-aperture, detector efficiency and
    the angular-correlation factor alpha.

    alpha may not make any coincidence probability of the source, at the
    canonical angles, exceed its singles: alpha eta (1 + V cos 2phi) <= 2.
    """

    theta: float
    zeta: float
    alpha: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.theta <= math.pi / 2:
            raise ValueError(f"theta = {self.theta} outside (0, pi/2]")
        if not 0.0 <= self.zeta <= 1.0:
            raise ValueError(f"zeta = {self.zeta} outside [0, 1]")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha = {self.alpha} must be finite and positive")
        # the rates at alpha = 1: the coincidences scale with alpha, the singles do not
        eta, v, optics_alpha = cascade_optics(self.theta, self.zeta)
        rates = [cascade_rates(1.0, eta, v, optics_alpha, phi) for phi in CANONICAL_ANGLES]
        singles, peak = rates[0][0], max(r12 for _, _, r12 in rates)
        if self.alpha * peak > singles:
            raise ValueError(
                f"alpha = {self.alpha} exceeds {singles / peak!r}, the largest value at which "
                "no coincidence probability exceeds the singles"
            )


@dataclass(frozen=True)
class PdcConfig:
    """Parametric down-conversion source parameters."""

    v: float
    eta: float
    r0: float

    def __post_init__(self):
        if not 0.0 <= self.v <= 1.0:
            raise ValueError(f"v = {self.v} outside [0, 1]")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta = {self.eta} outside [0, 1]")
        if not (math.isfinite(self.r0) and self.r0 > 0):
            raise ValueError(f"r0 = {self.r0} must be finite and positive")


@dataclass(frozen=True)
class AngleSet:
    """Signed polarizer angle differences for pairs (A,B), (A,D), (C,B), (C,D).

    The geometric identity phi1 + phi4 = phi2 + phi3 is enforced on signed
    values; cosine evaluations downstream are parity-insensitive.
    """

    phi1: float
    phi2: float
    phi3: float
    phi4: float

    def __post_init__(self):
        if abs((self.phi1 + self.phi4) - (self.phi2 + self.phi3)) > 1e-12:
            raise ValueError("angles must satisfy phi1 + phi4 = phi2 + phi3")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.phi1, self.phi2, self.phi3, self.phi4)

    def objective(self) -> float:
        """cos(2 phi1) + cos(2 phi2) + cos(2 phi3) - cos(2 phi4)."""
        return chsh_sum(*(math.cos(2 * phi) for phi in self.as_tuple()))


@dataclass(frozen=True)
class KinematicsInput:
    mass: float  # kg
    speed: float  # m/s
    separation: Optional[float] = None  # source-detector distance L, m
    measure_time: Optional[float] = None  # s

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if not 0.0 < self.speed < C_LIGHT:
            raise ValueError("speed must be in (0, c)")


def cascade_optics(theta: float, zeta: float) -> tuple[float, float, float]:
    """Aperture-dependent efficiency, visibility and angular correlation.

    eta = (1 - cos theta) zeta / 2,  V = 1 - (2/3)(1 - cos theta)^2,
    alpha = 1 (near-isotropic pair emission).
    """
    u = 1.0 - math.cos(theta)
    eta = 0.5 * u * zeta
    v = 1.0 - (2.0 / 3.0) * u * u
    return eta, v, 1.0


def cascade_rates(
    r0: float, eta: float, v: float, alpha: float, phi: float
) -> tuple[float, float, float]:
    """Singles and coincidence rates of a cascade experiment.

    r1 = r2 = r0 eta / 2;  r12 = r0 eta^2 alpha (1 + V cos 2phi) / 4.
    """
    r1 = 0.5 * r0 * eta
    r12 = 0.25 * r0 * eta * eta * alpha * (1.0 + v * math.cos(2.0 * phi))
    return r1, r1, r12


def two_channel_rates(cfg: PdcConfig, phi: float) -> tuple[float, float, float, float]:
    """Two-channel coincidence rates R++, R+-, R-+, R-- at angle phi.

    R++ = R-- = eta r0 (1 + V cos 2phi)/2 and R+- = R-+ = R++(phi + pi/2);
    the four rates always sum to 2 eta r0.
    """
    mod = cfg.v * math.cos(2.0 * phi)
    rpp = 0.5 * cfg.eta * cfg.r0 * (1.0 + mod)
    rpm = 0.5 * cfg.eta * cfg.r0 * (1.0 - mod)
    return rpp, rpm, rpm, rpp


def bi_margin(alpha: float, eta: float, v: float) -> tuple[float, bool]:
    """Left side of the genuine Bell condition alpha eta (1 + sqrt2 V) <= 2."""
    lhs = alpha * eta * (1.0 + SQRT2 * v)
    return lhs, lhs <= 2.0


class NoViolationPossibleError(ValueError):
    """The visibility is at or below sqrt(2)/2: no efficiency violates the test."""


def bi1_min_efficiency(v: float) -> float:
    """Smallest detection efficiency at which zeta (1 + sqrt2 V) <= 2 can fail.

    zeta_min = 2 / (1 + sqrt2 V); at the boundary visibility sqrt(2)/2 only a
    perfect detector reaches equality, and below it the condition holds for
    every efficiency, so no threshold exists.
    """
    if v < SQRT2 / 2.0:
        raise NoViolationPossibleError(
            f"V = {v} <= sqrt(2)/2: no detection efficiency allows a violation"
        )
    if v > 1.0:
        raise ValueError(f"V = {v} outside (sqrt(2)/2, 1]")
    return 2.0 / (1.0 + SQRT2 * v)


def optimal_angles() -> tuple[AngleSet, float]:
    """Angle set maximizing cos2phi1 + cos2phi2 + cos2phi3 - cos2phi4.

    The maximum under phi1 + phi4 = phi2 + phi3 is 2*sqrt(2), reached at
    magnitudes (pi/8, pi/8, pi/8, 3pi/8); the sign of phi1 makes the signed
    constraint hold.
    """
    angles = AngleSet(*CANONICAL_ANGLES)
    return angles, 2.0 * SQRT2


def cascade_bi_maximum(zeta: float, both_detectors: bool = False) -> tuple[float, float]:
    """Maximum of alpha eta(theta) (1 + sqrt2 V(theta)) over the aperture.

    With u = 1 - cos theta the objective is zeta (u (1+sqrt2) - 2 sqrt2 u^3/3)/2,
    a cubic in u whose only stationary point in (0, 1] is its maximum,
    u* = sqrt((1+sqrt2)/(2 sqrt2)); returns that value and theta* = acos(1 - u*).
    both_detectors doubles the value (each photon may reach either detector).
    """
    if not 0.0 < zeta <= 1.0:
        raise ValueError(f"zeta = {zeta} outside (0, 1]")
    u_star = math.sqrt((1.0 + SQRT2) / (2.0 * SQRT2))
    max_lhs = 0.5 * zeta * (u_star * (1.0 + SQRT2) - (2.0 * SQRT2 / 3.0) * u_star**3)
    if both_detectors:
        max_lhs *= 2.0
    return max_lhs, math.acos(1.0 - u_star)


class InsufficientCoverageError(ValueError):
    """The angle samples do not span a half-period of the correlation curve."""


def visibility_estimators(
    samples: Sequence[tuple[float, float]]
) -> tuple[float, float, float]:
    """Three empirical visibility estimates from (phi, E*) samples.

    v_fit: least-squares amplitude of V cos 2phi.
    v_a: (max - min)/(max + min) of the coincidence-rate curve, which is
         proportional to 1 + E*(phi), hence (E*max - E*min)/(E*max + E*min + 2)
         on the correlation samples.
    v_b: S*/(2 sqrt2) assembled from the samples nearest the canonical angles.

    The three agree on exact V cos 2phi data but respond differently to
    distortions; they are distinct estimators, not one quantity.
    """
    import numpy as np  # the one numpy user here: `predict` needs no numpy

    if len(samples) < 4:
        raise InsufficientCoverageError("at least 4 samples required")
    phis = np.array([s[0] for s in samples], dtype=float)
    es = np.array([s[1] for s in samples], dtype=float)
    if phis.max() - phis.min() < math.pi / 2 - 1e-9:
        raise InsufficientCoverageError("samples must span at least a half-period (pi/2)")

    basis = np.cos(2.0 * phis)
    denom = float(basis @ basis)
    if denom == 0.0:
        raise InsufficientCoverageError("all samples at curve nodes; amplitude unconstrained")
    v_fit = float(basis @ es) / denom

    e_max = float(es.max())
    e_min = float(es.min())
    v_a = (e_max - e_min) / (e_max + e_min + 2.0)

    def nearest(target: float) -> float:
        # the curve depends on phi only through cos 2phi: fold by parity
        # and pi-periodicity before measuring angular distance
        def dist(phi: float) -> float:
            d1 = abs((phi - target + math.pi / 2) % math.pi - math.pi / 2)
            d2 = abs((phi + target + math.pi / 2) % math.pi - math.pi / 2)
            return min(d1, d2)

        idx = min(range(len(phis)), key=lambda i: dist(float(phis[i])))
        return float(es[idx])

    s_star = chsh_sum(*(nearest(t) for t in CANONICAL_ANGLES))
    v_b = s_star / (2.0 * SQRT2)
    return v_fit, v_a, v_b


@dataclass(frozen=True)
class SpacelikeConstraints:
    l_min: float
    dt_arrival: Optional[float]
    l_meas: Optional[float]


def spacelike_constraints(k: KinematicsInput) -> SpacelikeConstraints:
    """Kinematic bounds for spacelike-separated massive-particle tests.

    l_min = 2 hbar c^2 / (m v^3): minimum source-detector distance before
    the quantum arrival-time spread sqrt(2 hbar L / (m v^3)) fits inside the
    light-travel window.  l_meas = c t_m: separation needed so a measurement
    of duration t_m stays outside the remote light cone.
    """
    mv3 = k.mass * k.speed**3
    l_min = 2.0 * HBAR * C_LIGHT**2 / mv3
    dt_arrival = math.sqrt(2.0 * HBAR * k.separation / mv3) if k.separation is not None else None
    l_meas = C_LIGHT * k.measure_time if k.measure_time is not None else None
    return SpacelikeConstraints(l_min=l_min, dt_arrival=dt_arrival, l_meas=l_meas)


def predicted_probability_set(eta: float, v: float, alpha: float = 1.0) -> ProbabilitySet:
    """CH probabilities at the canonical angles: the cascade_rates of a unit
    production rate, singles eta / 2 and coincidences
    eta^2 alpha (1 + V cos 2phi) / 4."""
    rates = [cascade_rates(1.0, eta, v, alpha, phi) for phi in CANONICAL_ANGLES]
    p1, p2, _ = rates[0]
    return ProbabilitySet(p1, p2, *(r12 for _, _, r12 in rates))


def prediction_reports(
    eta: float, v: float, alpha: float = 1.0
) -> tuple[InequalityReport, InequalityReport]:
    """Genuine CH verdict and auxiliary-assumption FC verdict for one source.

    Both are evaluated from the same predicted probabilities; the FC right
    side uses the polarizer-removed coincidences p(A,inf) = p(inf,B) =
    alpha eta^2 / 2.
    """
    ps = predicted_probability_set(eta, v, alpha)
    p_removed = 0.5 * alpha * eta * eta
    return ch_report(ps), fc_report(ps, p_removed, p_removed)


def cascade_inequality_reports(cfg: CascadeConfig) -> tuple[InequalityReport, InequalityReport]:
    """CH and FC verdicts with the optics derived from the lens aperture."""
    eta, v, alpha = cascade_optics(cfg.theta, cfg.zeta)
    return prediction_reports(eta, v, cfg.alpha * alpha)
