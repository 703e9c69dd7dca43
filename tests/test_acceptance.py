"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single pass/fail line,
so a plain ``pytest -s tests/test_acceptance.py`` gives a readable scorecard.
"""

import contextlib
import itertools
import json
import math
import re
import time

import numpy as np
import pytest

from bellkit.experiments import (
    CANONICAL_ANGLES,
    PdcConfig,
    bi1_min_efficiency,
    bi_margin,
    cascade_bi_maximum,
    prediction_reports,
    spacelike_constraints,
    two_channel_rates,
)
from bellkit.harness import AnalysisConfig, render_report, run_analysis
from bellkit.inequalities import CANONICAL_PHI, TwoChannelCounts
from bellkit.inequalities import ProbabilitySet, chsh_sum
from bellkit.inequalities import ch_report
from bellkit.models import (
    CH_FAMILY_FACETS,
    Feasible,
    joint_feasibility,
    probability_set_from_model,
)
from bellkit.search import maximize_s_star, mixture_statistics, sample_counts
from conftest import random_model

SQRT2 = math.sqrt(2.0)

# The strategies of one side, written out independently of bellkit: an
# outcome in {+, -, u} (u = undetected) at each of its two settings.
OUTCOMES = ("+", "-", "u")
STRATEGIES = list(itertools.product(OUTCOMES, repeat=2))


@contextlib.contextmanager
def scorecard(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def test_criterion_1_canonical_identity():
    with scorecard(1, "canonical S* identity"):
        for v in (0.0, 0.5, SQRT2 / 2, 0.85, 1.0):
            correlations = [v * math.cos(2 * phi) for phi in CANONICAL_ANGLES]
            assert abs(chsh_sum(*correlations) - 2 * SQRT2 * v) <= 1e-12
        # the boundary visibility gives S* = 2 exactly, so no CHSH-star violation
        boundary = [SQRT2 / 2 * math.cos(2 * phi) for phi in CANONICAL_ANGLES]
        assert chsh_sum(*boundary) == 2.0


def test_criterion_2_cascade_bound():
    with scorecard(2, "cascade coincidence bound"):
        single, _ = cascade_bi_maximum(1.0)
        both = 2.0 * single  # each photon may reach either detector, as predict writes
        assert abs(single - 0.7436) <= 1e-3
        assert abs(both - 1.4871) <= 2e-3
        assert single < 2 and both < 2


def test_criterion_3_efficiency_threshold():
    with scorecard(3, "efficiency threshold"):
        assert abs(bi1_min_efficiency(1.0) - 0.828427) <= 1e-6
        for v in np.linspace(SQRT2 / 2, 1.0, 100):
            lhs, _ = bi_margin(1.0, bi1_min_efficiency(float(v)), float(v))
            assert abs(lhs - 2.0) <= 1e-12


def test_criterion_4_low_efficiency_regime():
    with scorecard(4, "low-efficiency dual verdict"):
        lhs, fulfilled = bi_margin(alpha=1.0, eta=1e-4, v=0.85)
        assert lhs == pytest.approx(2.2021e-4, rel=1e-3)
        assert fulfilled
        ch, fc = prediction_reports(eta=1e-4, v=0.85, alpha=1.0)
        assert 2 * ch.lhs / ch.rhs == pytest.approx(lhs, rel=1e-12)
        assert not ch.violated and ch.genuine
        assert 2 * fc.lhs / fc.rhs == pytest.approx(2.2021, rel=1e-3)
        assert 2 * fc.lhs / fc.rhs > 2
        assert fc.violated and not fc.genuine


def test_criterion_5_soundness_property_suite():
    with scorecard(5, "factorizable-model soundness"):
        rng = np.random.default_rng(7_2026)
        start = time.monotonic()
        for _ in range(10_000):
            pset = probability_set_from_model(random_model(rng))
            assert ch_report(pset).margin >= -1e-10
            assert isinstance(joint_feasibility(pset), Feasible)
        assert time.monotonic() - start < 60


def _brute_force_member(pset):
    x = np.array([pset.pA, pset.pB, pset.pAB, pset.pAD, pset.pCB, pset.pCD])
    return all(np.dot(coeffs, x) <= offset + 1e-9 for _, coeffs, offset in CH_FAMILY_FACETS)


def test_criterion_6_oracle_equivalence():
    with scorecard(6, "feasibility oracle equivalence"):
        rng = np.random.default_rng(8_2026)
        start = time.monotonic()
        grid = np.linspace(0.0, 1.0, 5)
        checked = disagreements = 0
        while checked < 1000:
            p_a, p_b = rng.choice(grid, size=2)
            pairs = rng.choice(grid, size=4) * min(p_a, p_b)
            try:
                pset = ProbabilitySet(p_a, p_b, *pairs)
            except ValueError:
                continue
            checked += 1
            lp_says = isinstance(joint_feasibility(pset), Feasible)
            if lp_says != _brute_force_member(pset):
                disagreements += 1
        assert disagreements == 0
        assert time.monotonic() - start < 60


def test_criterion_7_detection_loophole_optimizer():
    with scorecard(7, "detection-loophole optimizer"):
        start = time.monotonic()
        assert abs(maximize_s_star(1.0).s_star_max - 2.0) <= 1e-6
        assert maximize_s_star(0.8).s_star_max > 2.0
        values = []
        for eta in np.linspace(0.1, 1.0, 10):
            result = maximize_s_star(float(eta))
            values.append(result.s_star_max)
            assert result.genuine_s <= 2.0 + 1e-8
            # parameter independence: side 1's outcome distribution at X,
            # the row sums of table (X, B) and of table (X, D), is one and the
            # same, the summed weight of the strategies giving each outcome
            tables = mixture_statistics(result.mixture)
            weights = result.mixture.weights.tolist()
            for xi, x in enumerate(("A", "C")):
                reference = [
                    math.fsum(
                        w for s, row in zip(STRATEGIES, weights) if s[xi] == o for w in row
                    )
                    for o in OUTCOMES
                ]
                rows_b, rows_d = (tables[(x, y)].sum(axis=1) for y in ("B", "D"))
                assert np.abs(rows_b - rows_d).max() <= 1e-15
                assert np.abs(rows_b - reference).max() <= 1e-15
                assert np.abs(rows_d - reference).max() <= 1e-15
        for lo_eta, hi_eta in zip(values[1:], values[:-1]):
            assert lo_eta <= hi_eta + 1e-9
        assert time.monotonic() - start < 120


def test_criterion_8_end_to_end_pipeline():
    with scorecard(8, "simulate-analyze pipeline"):
        cfg = PdcConfig(v=0.95, eta=0.1, r0=1.0)
        stats = {
            pair: TwoChannelCounts(*two_channel_rates(cfg, phi))
            for pair, phi in CANONICAL_PHI.items()
        }
        dataset = sample_counts(stats, 10**6, seed=20260826)
        report = run_analysis(dataset, AnalysisConfig())
        assert abs(report.s_star - 2.6870) <= 3 * report.s_err
        text = render_report(report, "text")
        assert "not a genuine Bell inequality" in text
        strip = lambda s: re.sub(r'"generated_at": "[^"]*"', "", s)
        first = render_report(report, "json")
        again = render_report(
            run_analysis(sample_counts(stats, 10**6, seed=20260826), AnalysisConfig()),
            "json",
        )
        assert strip(first) == strip(again)
        assert json.loads(first)["digest"] == json.loads(again)["digest"]


def test_criterion_9_kinematics():
    with scorecard(9, "spacelike separation kinematics"):
        result = spacelike_constraints(mass=3.818e-26, speed=3000.0, measure_time=1e-4)
        assert result.l_meas == 2.99792458e8 * 1e-4
        assert abs(result.l_min - 1.84e-2) / 1.84e-2 <= 0.01
