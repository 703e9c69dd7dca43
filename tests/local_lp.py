"""The linear program of a local model: the tests' one oracle for every
claim about which statistics a local model reproduces.

By Fine's theorem (PRL 48, 291, 1982) such statistics are exactly the
mixtures of deterministic strategy pairs.  A strategy fixes one side's
outcome at each of its settings, and a local model is a set of weights
w >= 0 over the pairs of a side-1 and a side-2 strategy.  Every claim is
then an LP over w whose rows are observables of a strategy pair; the
detection search is the same LP with a ratio to maximize (Larsson, PRA 57,
3304, 1998), made linear by the Charnes-Cooper substitution.

The strategy lists and observables are written in the tests that use this
module, and nothing here imports bellkit, so the oracle shares no
formulation with the program it checks.  pytest does not collect this file.

Each LP is solved by scipy's linprog with HiGHS at primal and dual
feasibility tolerance SOLVE_TOL, and a solution counts only once it meets
every row and bound within WITNESS_TOL: an "optimal" answer that does not
fails the test that asked for it instead of deciding it.
"""

import itertools

import numpy as np
from scipy.optimize import linprog

SOLVE_TOL = 1e-10
WITNESS_TOL = 1e-12


def pair_matrix(side1, side2, observables) -> np.ndarray:
    """The matrix whose column k holds observables(s, t) of the k-th
    strategy pair (s, t) in product order, side-1 strategy first."""
    return np.array([observables(s, t) for s, t in itertools.product(side1, side2)], float).T


def _solve(c, a_eq, b_eq):
    """x >= 0 with a_eq x = b_eq that minimizes c.x, checked within
    WITNESS_TOL, or None when HiGHS finds the rows infeasible."""
    res = linprog(
        c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": SOLVE_TOL, "dual_feasibility_tolerance": SOLVE_TOL},
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    x = res.x
    miss = max(-x.min(), np.abs(a_eq @ x - b_eq).max())
    assert miss <= WITNESS_TOL, f"an optimal answer misses its bounds or rows by {miss:.2e}"
    return x


def local_witness(a_eq, b_eq):
    """Weights w >= 0 over the strategy pairs with a_eq w = b_eq, or None
    when no local model gives b_eq."""
    return _solve(np.zeros(a_eq.shape[1]), a_eq, b_eq)


def ratio_lp(num, den, a_eq, b_eq):
    """The Charnes-Cooper LP of max num.w / den.w over w >= 0 with
    a_eq w = b_eq, as (c, a_eq, b_eq): in (y, tau) = (tau w, tau) >= 0,
    minimize -num.y subject to a_eq y - b_eq tau = 0 and den.y = 1."""
    c = np.append(-num, 0.0)
    # 0.0 - b gives +0.0, not -0.0, where b is 0
    a = np.vstack([np.column_stack([a_eq, 0.0 - b_eq]), np.append(den, 0.0)])
    return c, a, np.append(np.zeros(len(b_eq)), 1.0)


def max_ratio(num, den, a_eq, b_eq) -> float:
    """The largest num.w / den.w over the local models w with a_eq w = b_eq
    and den.w > 0: num.y at the optimum of ratio_lp."""
    x = _solve(*ratio_lp(num, den, a_eq, b_eq))
    assert x is not None, "no local model meets the rows"
    return float(num @ x[:-1])
