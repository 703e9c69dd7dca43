"""Closed-form quantum predictions for photon-pair polarization experiments.

Covers atomic-cascade sources (aperture-dependent efficiency and visibility),
parametric down-conversion two-channel rates, the efficiency thresholds at
which a genuine Bell test becomes possible, and the kinematic spacelike
separation constraints for massive-particle tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .inequalities import (
    CANONICAL_ANGLES,
    InequalityReport,
    ProbabilitySet,
    ch_report,
    fc_report,
)

HBAR = 1.054571817e-34  # J s
C_LIGHT = 2.99792458e8  # m/s

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class CascadeConfig:
    """Atomic-cascade source: lens half-aperture, detector efficiency and
    the angular-correlation factor alpha.

    alpha may not make any coincidence probability of the source exceed its
    singles eta / 2.  With one polarizer removed the coincidences are
    alpha eta^2 / 2, so alpha eta <= 1; that bound also keeps the polarizer
    coincidences eta^2 alpha (1 + V cos 2phi) / 4 below the singles.
    """

    theta: float
    zeta: float
    alpha: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.theta <= math.pi / 2:
            raise ValueError(f"theta = {self.theta} outside (0, pi/2]")
        if not 0.0 < self.zeta <= 1.0:
            raise ValueError(f"zeta = {self.zeta} outside (0, 1]")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha = {self.alpha} must be finite and positive")
        eta, _ = cascade_optics(self.theta, self.zeta)
        # a theta so small that eta underflows to 0 detects nothing at all
        if eta > 0.0 and self.alpha > 1.0 / eta:
            raise ValueError(
                f"alpha = {self.alpha} exceeds 1/eta = {1.0 / eta!r}, the largest value at "
                "which no coincidence probability exceeds the singles"
            )


@dataclass(frozen=True)
class PdcConfig:
    """Parametric down-conversion source parameters."""

    v: float
    eta: float
    r0: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.v <= 1.0:
            raise ValueError(f"v = {self.v} outside [0, 1]")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta = {self.eta} outside [0, 1]")
        if not (math.isfinite(self.r0) and self.r0 > 0):
            raise ValueError(f"r0 = {self.r0} must be finite and positive")


def cascade_optics(theta: float, zeta: float) -> tuple[float, float]:
    """Aperture-dependent efficiency and visibility of a cascade source.

    eta = (1 - cos theta) zeta / 2,  V = 1 - (2/3)(1 - cos theta)^2.  The
    angular-correlation factor alpha is CascadeConfig.alpha, 1 by default
    (near-isotropic pair emission).
    """
    u = 1.0 - math.cos(theta)
    eta = 0.5 * u * zeta
    v = 1.0 - (2.0 / 3.0) * u * u
    return eta, v


def cascade_rates(eta: float, v: float, alpha: float, phi: float) -> tuple[float, float, float]:
    """Singles and coincidence rates of a cascade experiment per emitted pair.

    r1 = r2 = eta / 2;  r12 = eta^2 alpha (1 + V cos 2phi) / 4.
    """
    r1 = 0.5 * eta
    r12 = 0.25 * eta * eta * alpha * (1.0 + v * math.cos(2.0 * phi))
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


def bi1_min_efficiency(v: float) -> Optional[float]:
    """Smallest detection efficiency at which zeta (1 + sqrt2 V) <= 2 can fail.

    zeta_min = 2 / (1 + sqrt2 V); at the boundary visibility sqrt(2)/2 only a
    perfect detector reaches equality, and below it the condition holds for
    every efficiency, so no threshold exists and the result is None.
    """
    if not v <= 1.0:  # nan too
        raise ValueError(f"V = {v} must be a number at most 1")
    if v < SQRT2 / 2.0:
        return None
    return 2.0 / (1.0 + SQRT2 * v)


def cascade_bi_maximum(zeta: float) -> tuple[float, float]:
    """Maximum of alpha eta(theta) (1 + sqrt2 V(theta)) over the aperture.

    With u = 1 - cos theta the objective is zeta (u (1+sqrt2) - 2 sqrt2 u^3/3)/2,
    a cubic in u whose only stationary point in (0, 1] is its maximum,
    u* = sqrt((1+sqrt2)/(2 sqrt2)); returns that value and theta* = acos(1 - u*).
    """
    if not 0.0 < zeta <= 1.0:
        raise ValueError(f"zeta = {zeta} outside (0, 1]")
    u_star = math.sqrt((1.0 + SQRT2) / (2.0 * SQRT2))
    max_lhs = 0.5 * zeta * (u_star * (1.0 + SQRT2) - (2.0 * SQRT2 / 3.0) * u_star**3)
    return max_lhs, math.acos(1.0 - u_star)


@dataclass(frozen=True)
class SpacelikeConstraints:
    l_min: float
    dt_arrival: Optional[float]
    l_meas: Optional[float]


def spacelike_constraints(
    mass: float,
    speed: float,
    separation: Optional[float] = None,
    measure_time: Optional[float] = None,
) -> SpacelikeConstraints:
    """Kinematic bounds for spacelike-separated massive-particle tests.

    mass in kg, speed in m/s, separation the source-detector distance L in
    m, measure_time t_m in s.  l_min = 2 hbar c^2 / (m v^3): minimum
    source-detector distance before the quantum arrival-time spread
    sqrt(2 hbar L / (m v^3)) fits inside the light-travel window.
    l_meas = c t_m: separation needed so a measurement of duration t_m stays
    outside the remote light cone.
    """
    if not (math.isfinite(mass) and mass > 0):
        raise ValueError(f"mass = {mass} must be finite and positive")
    for name, value in (("separation", separation), ("measure_time", measure_time)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} = {value} must be finite and positive")
    if not 0.0 < speed < C_LIGHT:
        raise ValueError("speed must be in (0, c)")
    mv3 = mass * speed**3
    l_min = 2.0 * HBAR * C_LIGHT**2 / mv3
    dt_arrival = math.sqrt(2.0 * HBAR * separation / mv3) if separation is not None else None
    l_meas = C_LIGHT * measure_time if measure_time is not None else None
    return SpacelikeConstraints(l_min=l_min, dt_arrival=dt_arrival, l_meas=l_meas)


def predicted_probability_set(eta: float, v: float, alpha: float = 1.0) -> ProbabilitySet:
    """CH probabilities at the canonical angles: the cascade_rates, singles
    eta / 2 and coincidences eta^2 alpha (1 + V cos 2phi) / 4."""
    rates = [cascade_rates(eta, v, alpha, phi) for phi in CANONICAL_ANGLES]
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

