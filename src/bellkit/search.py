"""Optimization over mixtures of deterministic local strategies.

Strategies pick an outcome in {+, -, u} per setting (u = undetected);
mixtures of strategy pairs are the extreme-point parameterization of the
factorizable set, so everything here is exactly local-realistic by
construction.  The optimizer maximizes the renormalized CHSH statistic S*
under a detection-efficiency constraint, which is how the detection
loophole is quantified: S* can exceed 2 while the genuine statistic S of
the very same mixture never does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .harness import CountDataset, CountRow
from .inequalities import CANONICAL_PAIRS as PAIRS
from .inequalities import TwoChannelCounts, chsh_sum, correlation, renormalized_correlation
from .models import FactorizableModel, HiddenVariableSpace, ResponseTable

OUTCOMES = ("+", "-", "u")

SIDE1_SETTINGS = ("A", "C")
SIDE2_SETTINGS = ("B", "D")

WEIGHT_TOL = 1e-10


@dataclass(frozen=True)
class DeterministicStrategy:
    side: int
    outcomes: tuple[str, ...]  # one entry per setting

    def __post_init__(self):
        if any(o not in OUTCOMES for o in self.outcomes):
            raise ValueError(f"outcomes must be drawn from {OUTCOMES}")


def enumerate_local_strategies(
    n_settings: int, outcomes: Sequence[str] = OUTCOMES, side: int = 1
) -> tuple[DeterministicStrategy, ...]:
    """All |outcomes|^n_settings deterministic strategies, in product order."""
    if n_settings < 1:
        raise ValueError("n_settings must be >= 1")
    if not set(outcomes) <= set(OUTCOMES):
        raise ValueError(f"outcomes must be a subset of {OUTCOMES}")
    return tuple(
        DeterministicStrategy(side, combo)
        for combo in itertools.product(tuple(outcomes), repeat=n_settings)
    )


@dataclass(frozen=True)
class StrategyMixture:
    """Probability weights over ordered pairs of local strategies."""

    strategies1: tuple[DeterministicStrategy, ...]
    strategies2: tuple[DeterministicStrategy, ...]
    weights: np.ndarray  # shape (len(strategies1), len(strategies2))

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        if w.shape != (len(self.strategies1), len(self.strategies2)):
            raise ValueError("weights shape must match the strategy lists")
        if w.min() < -WEIGHT_TOL:
            raise ValueError("negative mixture weight")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise ValueError(f"mixture weights sum to {w.sum()}, not 1")

    def to_json(self) -> dict:
        return {
            "strategies1": [list(s.outcomes) for s in self.strategies1],
            "strategies2": [list(s.outcomes) for s in self.strategies2],
            "weights": self.weights.tolist(),
        }


@dataclass(frozen=True)
class MixtureStatistics:
    """Per-setting-pair outcome tables and marginals of a mixture.

    tables[(X, Y)] is the 3x3 joint outcome distribution in OUTCOMES order;
    detection and plus-outcome marginals are indexed by (side, setting).
    """

    settings1: tuple[str, ...]
    settings2: tuple[str, ...]
    tables: dict[tuple[str, str], np.ndarray]
    detection: dict[tuple[int, str], float]
    plus: dict[tuple[int, str], float]

    def two_channel(self, x: str, y: str) -> TwoChannelCounts:
        t = self.tables[(x, y)]
        return TwoChannelCounts(ppp=t[0, 0], ppm=t[0, 1], pmp=t[1, 0], pmm=t[1, 1])


def _setting_index(settings: tuple[str, ...], label: str) -> int:
    try:
        return settings.index(label)
    except ValueError:
        raise KeyError(f"unknown setting {label!r}") from None


def mixture_statistics(
    m: StrategyMixture,
    settings1: tuple[str, ...] = SIDE1_SETTINGS,
    settings2: tuple[str, ...] = SIDE2_SETTINGS,
) -> MixtureStatistics:
    n1 = len(m.strategies1[0].outcomes)
    n2 = len(m.strategies2[0].outcomes)
    if len(settings1) != n1 or len(settings2) != n2:
        raise ValueError("setting labels must match the strategies' setting count")
    w = m.weights
    tables: dict[tuple[str, str], np.ndarray] = {}
    for xi, x in enumerate(settings1):
        # indicator of side-1 strategies producing each outcome at setting x
        m1 = [
            np.array([s.outcomes[xi] == o for s in m.strategies1], dtype=float)
            for o in OUTCOMES
        ]
        for yi, y in enumerate(settings2):
            m2 = [
                np.array([s.outcomes[yi] == o for s in m.strategies2], dtype=float)
                for o in OUTCOMES
            ]
            tab = np.array([[float(a @ w @ b) for b in m2] for a in m1])
            tables[(x, y)] = tab
    detection: dict[tuple[int, str], float] = {}
    plus: dict[tuple[int, str], float] = {}
    w1 = w.sum(axis=1)
    w2 = w.sum(axis=0)
    for xi, x in enumerate(settings1):
        det = np.array([s.outcomes[xi] != "u" for s in m.strategies1], dtype=float)
        plu = np.array([s.outcomes[xi] == "+" for s in m.strategies1], dtype=float)
        detection[(1, x)] = float(det @ w1)
        plus[(1, x)] = float(plu @ w1)
    for yi, y in enumerate(settings2):
        det = np.array([s.outcomes[yi] != "u" for s in m.strategies2], dtype=float)
        plu = np.array([s.outcomes[yi] == "+" for s in m.strategies2], dtype=float)
        detection[(2, y)] = float(det @ w2)
        plus[(2, y)] = float(plu @ w2)
    return MixtureStatistics(
        settings1=settings1, settings2=settings2, tables=tables, detection=detection, plus=plus
    )


def side1_outcome_marginals(m: StrategyMixture, setting: str, given_side2_setting: str) -> tuple[float, ...]:
    """Side-1 outcome distribution at a setting, conditioned on the remote
    setting choice.  Computed with order-independent exact summation, so the
    result is bit-identical for every remote setting: parameter independence
    is structural, not a numerical accident."""
    xi = _setting_index(SIDE1_SETTINGS, setting)
    _setting_index(SIDE2_SETTINGS, given_side2_setting)  # validate only
    out = []
    for o in OUTCOMES:
        terms = [
            float(m.weights[i, j])
            for i, s in enumerate(m.strategies1)
            if s.outcomes[xi] == o
            for j in range(len(m.strategies2))
        ]
        out.append(math.fsum(terms))
    return tuple(out)


def mixture_to_model(m: StrategyMixture) -> FactorizableModel:
    """Lossless conversion: one hidden-variable cell per strategy pair.

    The yes/no observable is detection in the + channel, so '-' and 'u'
    both map to response 0.
    """
    n1, n2 = m.weights.shape
    cells = tuple(f"s{i}x{j}" for i in range(n1) for j in range(n2))
    weights = m.weights.reshape(-1)
    t1 = np.array(
        [
            [1.0 if m.strategies1[i].outcomes[k] == "+" else 0.0 for k in range(len(SIDE1_SETTINGS))]
            for i in range(n1)
            for _ in range(n2)
        ]
    )
    t2 = np.array(
        [
            [1.0 if m.strategies2[j].outcomes[k] == "+" else 0.0 for k in range(len(SIDE2_SETTINGS))]
            for _ in range(n1)
            for j in range(n2)
        ]
    )
    space = HiddenVariableSpace(cells, weights)
    r1 = ResponseTable(1, SIDE1_SETTINGS, t1)
    r2 = ResponseTable(2, SIDE2_SETTINGS, t2)
    return FactorizableModel(space, r1, r2)


@dataclass(frozen=True)
class SearchResult:
    eta: float
    s_star_max: float
    genuine_s: float
    mixture: StrategyMixture
    pair_counts: dict[tuple[str, str], TwoChannelCounts]

    def to_json(self) -> dict:
        return {
            "eta": self.eta,
            "s_star_max": self.s_star_max,
            "genuine_s": self.genuine_s,
            "weights": self.mixture.weights.tolist(),
            "pair_totals": {
                f"{x},{y}": tc.total() for (x, y), tc in sorted(self.pair_counts.items())
            },
        }


class SearchFailure(RuntimeError):
    """The LP solver stopped without an optimal solution."""


def _lp_arrays(eta: float):
    """Equality system and per-pair numerator/denominator coefficient rows."""
    s1 = enumerate_local_strategies(2, side=1)
    s2 = enumerate_local_strategies(2, OUTCOMES, side=2)
    pairs = list(itertools.product(range(len(s1)), range(len(s2))))
    nvar = len(pairs)

    def detect(s: DeterministicStrategy, k: int) -> bool:
        return s.outcomes[k] != "u"

    a_eq = [np.ones(nvar)]
    b_eq = [1.0]
    for k in range(2):
        row = np.array([1.0 if detect(s1[i], k) else 0.0 for i, _ in pairs])
        a_eq.append(row)
        b_eq.append(eta)
    for k in range(2):
        row = np.array([1.0 if detect(s2[j], k) else 0.0 for _, j in pairs])
        a_eq.append(row)
        b_eq.append(eta)

    value = {("+", "+"): 1.0, ("-", "-"): 1.0, ("+", "-"): -1.0, ("-", "+"): -1.0}
    num_rows = []
    den_rows = []
    for x, y in PAIRS:
        xi = SIDE1_SETTINGS.index(x)
        yi = SIDE2_SETTINGS.index(y)
        num = np.array(
            [value.get((s1[i].outcomes[xi], s2[j].outcomes[yi]), 0.0) for i, j in pairs]
        )
        den = np.array(
            [1.0 if detect(s1[i], xi) and detect(s2[j], yi) else 0.0 for i, j in pairs]
        )
        num_rows.append(num)
        den_rows.append(den)

    # equal coincidence totals across the four pairs
    for k in range(1, 4):
        a_eq.append(den_rows[0] - den_rows[k])
        b_eq.append(0.0)

    n_total = chsh_sum(*num_rows)
    return s1, s2, np.array(a_eq), np.array(b_eq), n_total, den_rows[0]


def maximize_s_star(eta: float) -> SearchResult:
    """Largest renormalized CHSH value any local mixture reaches at
    detection efficiency eta on every setting of both sides.

    Equal per-pair coincidence totals are imposed, so the four ratios share
    one denominator and S* = n.x / d.x is a single linear-fractional
    objective over the mixture weights x.  The Charnes-Cooper substitution
    y = tau x with d.y = 1 turns it into one LP in (y, tau) >= 0; the
    normalization row sum(x) = 1 becomes sum(y) = tau, so tau > 0 and
    x = y / tau, and the bounds x <= 1 follow from it.
    """
    from scipy.optimize import linprog

    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta = {eta} outside (0, 1]")
    s1, s2, a_eq, b_eq, n_total, den = _lp_arrays(eta)

    res = linprog(
        c=np.append(-n_total, 0.0),
        A_eq=np.vstack([np.column_stack([a_eq, -b_eq]), np.append(den, 0.0)]),
        b_eq=np.append(np.zeros(len(b_eq)), 1.0),
        bounds=(0.0, None),
        method="highs",
    )
    if res.status != 0:
        raise SearchFailure(f"LP solver status {res.status}: {res.message}")
    best_x = res.x[:-1] / res.x[-1]

    w = np.clip(best_x, 0.0, None).reshape(len(s1), len(s2))
    w = w / w.sum()
    mixture = StrategyMixture(s1, s2, w)
    stats = mixture_statistics(mixture)
    pair_counts = {(x, y): stats.two_channel(x, y) for x, y in PAIRS}
    s_star = chsh_sum(*(renormalized_correlation(pair_counts[pair]) for pair in PAIRS))
    genuine_s = chsh_sum(*(correlation(pair_counts[pair]) for pair in PAIRS))
    return SearchResult(
        eta=eta, s_star_max=s_star, genuine_s=genuine_s, mixture=mixture, pair_counts=pair_counts
    )


def sample_counts(
    statistics: dict[tuple[str, str], TwoChannelCounts], n_pairs: int, seed: int
) -> CountDataset:
    """Multinomial coincidence counts for each setting pair.

    Sampling uses numpy's default generator (PCG64) seeded once; setting
    pairs are drawn in sorted label order so a given seed always yields the
    same dataset.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    rng = np.random.default_rng(seed)
    rows = []
    for (x, y) in sorted(statistics):
        tc = statistics[(x, y)]
        total = tc.total()
        if total <= 0:
            raise ValueError(f"pair ({x},{y}) has zero total probability")
        probs = np.array([tc.ppp, tc.ppm, tc.pmp, tc.pmm]) / total
        n_pp, n_pm, n_mp, n_mm = (int(n) for n in rng.multinomial(n_pairs, probs))
        rows.append(
            CountRow(
                setting_a=x, setting_b=y, n_pp=n_pp, n_pm=n_pm, n_mp=n_mp, n_mm=n_mm
            )
        )
    return CountDataset(rows=tuple(rows), seed=seed)
