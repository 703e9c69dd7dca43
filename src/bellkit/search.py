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

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .inequalities import CANONICAL_PAIRS as PAIRS
from .inequalities import SIDE1_SETTINGS, SIDE2_SETTINGS, CountDataset, CountRow
from .inequalities import TwoChannelCounts, chsh_sum, correlation, renormalized_correlation
from .models import _frozen, _value_eq, solve_equality_lp

OUTCOMES = ("+", "-", "u")

# The deterministic local strategies of one side: an outcome at each of its
# two settings, in product order.  Both sides draw from these nine.
STRATEGIES = tuple(itertools.product(OUTCOMES, repeat=2))

WEIGHT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class StrategyMixture:
    """Probability weights over ordered pairs of STRATEGIES: weights[i, j]
    is the weight of side-1 strategy i with side-2 strategy j."""

    weights: np.ndarray  # shape (len(STRATEGIES), len(STRATEGIES))

    __eq__ = _value_eq

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        shape = (len(STRATEGIES), len(STRATEGIES))
        if w.shape != shape:
            raise ValueError(f"mixture weights must have shape {shape}, not {w.shape}")
        if w.min() < -WEIGHT_TOL:
            raise ValueError("negative mixture weight")
        if not abs(w.sum() - 1.0) <= WEIGHT_TOL:  # nan fails it
            raise ValueError(f"mixture weights sum to {w.sum()}, not 1")
        # rounding residue in [-WEIGHT_TOL, 0) becomes 0, so that every
        # outcome table of the mixture is a valid TwoChannelCounts
        object.__setattr__(self, "weights", _frozen(np.where(w < 0.0, 0.0, w)))


# Read-only 0/1 array of shape (settings, len(OUTCOMES), len(STRATEGIES)):
# entry [k, o, i] is 1 where strategy i gives OUTCOMES[o] at setting k.
# Every mixture_statistics call and the search LP read it; detection at k is
# row [k, 0] plus row [k, 1].
_INDICATORS = _frozen(
    np.ascontiguousarray(
        np.stack([np.array(STRATEGIES).T == o for o in OUTCOMES], axis=1), dtype=float
    )
)


def mixture_statistics(m: StrategyMixture) -> dict[tuple[str, str], np.ndarray]:
    """Outcome tables of a mixture of strategies on the settings
    SIDE1_SETTINGS and SIDE2_SETTINGS: setting pair (X, Y) -> the read-only
    3x3 joint outcome distribution in OUTCOMES order.

    All 16 tables come from one product of the weights with the indicator
    array on both sides.
    """
    ind = _INDICATORS.reshape(-1, len(STRATEGIES))
    # t[x, o1, y, o2]: weight of the pairs giving o1 at x and o2 at y
    t = _frozen((ind @ m.weights @ ind.T).reshape(2, 3, 2, 3))
    return {
        (x, y): t[xi, :, yi]
        for xi, x in enumerate(SIDE1_SETTINGS)
        for yi, y in enumerate(SIDE2_SETTINGS)
    }


@dataclass(frozen=True)
class SearchResult:
    """The optimal mixture at efficiency eta.  Its coincidence counts for
    each setting pair come from mixture_statistics; S* and the genuine S
    follow from them."""

    eta: float
    mixture: StrategyMixture

    @functools.cached_property
    def pair_counts(self) -> dict[tuple[str, str], TwoChannelCounts]:
        tables = mixture_statistics(self.mixture)
        return {pair: TwoChannelCounts(*tables[pair][:2, :2].ravel()) for pair in PAIRS}

    @property
    def s_star_max(self) -> float:
        return chsh_sum(*(renormalized_correlation(self.pair_counts[pair]) for pair in PAIRS))

    @property
    def genuine_s(self) -> float:
        return chsh_sum(*(correlation(self.pair_counts[pair]) for pair in PAIRS))

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


@dataclass(frozen=True, eq=False)
class _SearchLP:
    """The eta-independent part of the Charnes-Cooper LP in (y, tau).

    a_eq stacks the equality system [A | -b] over the strategy pairs in
    product order and the denominator row [d | 0].  The tau entries of the
    four detection rows, whose right-hand side is eta, hold nan; a solve
    fills them with -eta in a copy.
    """

    c: np.ndarray
    b_eq: np.ndarray
    a_eq: np.ndarray


@functools.cache
def _search_lp() -> _SearchLP:
    n = len(STRATEGIES)
    ind = _INDICATORS
    # detection rows: plus row + minus row, exact for 0/1 entries
    det = ind[:, 0] + ind[:, 1]

    # normalization, then detection at each setting of side 1 and of side 2
    a_eq = [np.ones(n * n), *np.repeat(det, n, axis=1), *np.tile(det, n)]
    b_eq = [1.0] + [math.nan] * 4

    num_rows = []
    den_rows = []
    for x, y in PAIRS:
        xi, yi = SIDE1_SETTINGS.index(x), SIDE2_SETTINGS.index(y)
        (pa, ma, _), (pb, mb, _) = ind[xi], ind[yi]
        # +1 for equal, -1 for opposite outcomes, 0 unless both sides detect
        num = np.outer(pa, pb) + np.outer(ma, mb) - np.outer(pa, mb) - np.outer(ma, pb)
        num_rows.append(num.ravel())
        den_rows.append(np.outer(det[xi], det[yi]).ravel())

    # equal coincidence totals across the four pairs
    for k in range(1, 4):
        a_eq.append(den_rows[0] - den_rows[k])
        b_eq.append(0.0)

    a_eq, b_eq = np.array(a_eq), np.array(b_eq)
    # + 0.0 turns the -0.0 of -b_eq into 0.0
    a_eq = np.vstack([np.column_stack([a_eq, -b_eq]), np.append(den_rows[0], 0.0)]) + 0.0
    return _SearchLP(
        c=_frozen(np.append(-chsh_sum(*num_rows), 0.0)),
        b_eq=_frozen(np.append(np.zeros(len(b_eq)), 1.0)),
        a_eq=_frozen(a_eq),
    )


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
    # HiGHS drops matrix entries of magnitude 1e-9 or less, and with them
    # the -eta entries of the detection rows: the LP would read infeasible
    if not 1e-9 < eta <= 1.0:
        raise ValueError(f"eta = {eta} outside (1e-9, 1]")
    lp = _search_lp()
    a_eq = np.where(np.isnan(lp.a_eq), -eta, lp.a_eq)

    status, x, message = solve_equality_lp(lp.c, a_eq, lp.b_eq, math.inf)
    if status != 0:
        raise SearchFailure(f"LP solver status {status}: {message}")
    best_x = x[:-1] / x[-1]

    w = np.clip(best_x, 0.0, None).reshape(len(STRATEGIES), len(STRATEGIES))
    return SearchResult(eta, StrategyMixture(w / w.sum()))


def sample_counts(
    statistics: dict[tuple[str, str], TwoChannelCounts], n_pairs: int, seed: int
) -> CountDataset:
    """Multinomial coincidence counts for each setting pair.

    Sampling uses numpy's default generator (PCG64) seeded once; setting
    pairs are drawn in sorted label order so a given seed always yields the
    same dataset.
    """
    # numpy draws up to a 64-bit count per call
    if not 1 <= n_pairs < 2**63:
        raise ValueError(f"n_pairs = {n_pairs} outside [1, 2**63)")
    rng = np.random.default_rng(seed)
    rows = []
    for (x, y) in sorted(statistics):
        tc = statistics[(x, y)]
        total = tc.total()
        if not 0 < total < math.inf:
            raise ValueError(f"pair ({x},{y}) has total {total}, not finite and positive")
        probs = np.array([tc.ppp, tc.ppm, tc.pmp, tc.pmm]) / total
        n_pp, n_pm, n_mp, n_mm = (int(n) for n in rng.multinomial(n_pairs, probs))
        rows.append(
            CountRow(
                setting_a=x, setting_b=y, n_pp=n_pp, n_pm=n_pm, n_mp=n_mp, n_mm=n_mm
            )
        )
    return CountDataset(rows=tuple(rows), seed=seed)
