"""Factorizable (local-realistic) probability models on a discrete hidden space.

The hidden variable is discretized into finitely many cells with explicit
weights, so all integrals become finite sums and tests can be exact.  Each
side carries its own response table: the detection probability at a setting
depends only on the cell and the local setting (parameter independence by
construction).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np

from .inequalities import CANONICAL_PAIRS, PAIR_TOL, SIDE1_SETTINGS, SIDE2_SETTINGS
from .inequalities import ProbabilitySet, check_json

MODEL_TOL = 1e-12


def _frozen(a, dtype=None) -> np.ndarray:
    """A read-only copy of a, of dtype, or of its own dtype when dtype is
    None (an integer array stays integer).  The caller's array is left
    writable, and a later write to it does not reach the copy."""
    arr = np.array(a, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _value_eq(self, other) -> bool:
    """Equality of two instances of one dataclass, field by field: arrays
    are equal when np.array_equal holds, dicts when they hold the same keys
    with equal values.  The generated __eq__ compares arrays with ==, whose
    truth value is ambiguous.  A class that sets __eq__ = _value_eq is
    unhashable."""
    if type(other) is not type(self):
        return NotImplemented
    return all(
        _equal_values(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
    )


def _equal_values(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal_values(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@dataclass(frozen=True, eq=False)
class HiddenVariableSpace:
    """Discretized hidden-variable density: one weight per cell."""

    cells: tuple[str, ...]
    weights: np.ndarray

    __eq__ = _value_eq

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        object.__setattr__(self, "weights", _frozen(self.weights, float))
        if self.weights.shape != (len(self.cells),):
            raise ValueError("one weight per cell required")

    @property
    def n_cells(self) -> int:
        return len(self.cells)


@dataclass(frozen=True, eq=False)
class ResponseTable:
    """Per-cell detection probabilities for one side's settings.

    values[i, j] is the probability of the "yes" outcome in cell i at
    setting j; it never references the remote side's setting.
    """

    side: int
    settings: tuple[str, ...]
    values: np.ndarray

    __eq__ = _value_eq

    def __post_init__(self):
        if self.side not in (1, 2):
            raise ValueError("side must be 1 or 2")
        object.__setattr__(self, "settings", tuple(self.settings))
        object.__setattr__(self, "values", _frozen(self.values, float))
        if self.values.ndim != 2 or self.values.shape[1] != len(self.settings):
            raise ValueError("values must be (n_cells, n_settings)")

    def column(self, setting: str) -> np.ndarray:
        try:
            j = self.settings.index(setting)
        except ValueError:
            raise KeyError(f"unknown setting {setting!r} on side {self.side}") from None
        return self.values[:, j]


# The fields of a saved model, in the check_json schema form.
_SIDE_SCHEMA = {"settings": [str, ...], "table": [[float, ...], ...]}
MODEL_SCHEMA = {"cells": [str, ...], "weights": [float, ...], "side1": _SIDE_SCHEMA,
                "side2": _SIDE_SCHEMA}


@dataclass(frozen=True)
class FactorizableModel:
    space: HiddenVariableSpace
    response1: ResponseTable
    response2: ResponseTable

    def __post_init__(self):
        n = self.space.n_cells
        if self.response1.values.shape[0] != n or self.response2.values.shape[0] != n:
            raise ValueError("response tables must index the same cell set as the space")
        if self.response1.side != 1 or self.response2.side != 2:
            raise ValueError("response1 must be side 1, response2 side 2")

    @classmethod
    def from_json(cls, data: dict) -> "FactorizableModel":
        check_json(data, MODEL_SCHEMA)
        n_cells = len(data["cells"])
        if len(data["weights"]) != n_cells:
            raise ValueError(
                f"field weights holds {len(data['weights'])} entries, not one per cell ({n_cells})"
            )
        responses = []
        for side in (1, 2):
            settings, table = data[f"side{side}"]["settings"], data[f"side{side}"]["table"]
            if len(table) != n_cells:
                raise ValueError(
                    f"field side{side}.table holds {len(table)} rows, not one per cell ({n_cells})"
                )
            for k, row in enumerate(table):
                if len(row) != len(settings):
                    raise ValueError(
                        f"field side{side}.table[{k}] holds {len(row)} entries, "
                        f"not one per setting ({len(settings)})"
                    )
            # the shape holds for an empty table too, which np.array reads as (0,)
            values = np.array(table).reshape(n_cells, len(settings))
            responses.append(ResponseTable(side, tuple(settings), values))
        space = HiddenVariableSpace(tuple(data["cells"]), np.array(data["weights"]))
        return cls(space, *responses)


@dataclass(frozen=True)
class Violation:
    kind: str  # "negativity" | "normalization" | "range" | "non-finite"
    where: str
    amount: float


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            # a non-finite amount is written as its name ("nan", "inf"), not
            # as a number JSON cannot hold
            "violations": [
                {
                    "kind": v.kind,
                    "where": v.where,
                    "amount": v.amount if math.isfinite(v.amount) else str(v.amount),
                }
                for v in self.violations
            ],
        }


def validate_model(model: FactorizableModel) -> ValidationReport:
    """Check the probability conditions, each within MODEL_TOL: finite
    weights >= 0, unit normalization, all responses finite and within
    [0, 1].  Diagnostics are the return value; a NaN or infinite entry is a
    "non-finite" violation holding the entry."""
    violations: list[Violation] = []
    w = model.space.weights
    for i, cell in enumerate(model.space.cells):
        if not math.isfinite(w[i]):
            violations.append(Violation("non-finite", f"weight[{cell}]", float(w[i])))
        elif w[i] < -MODEL_TOL:
            violations.append(Violation("negativity", f"weight[{cell}]", float(-w[i])))
    deficit = 1.0 - float(w.sum())
    if abs(deficit) > MODEL_TOL:
        violations.append(Violation("normalization", "weights", deficit))
    for table in (model.response1, model.response2):
        for i, cell in enumerate(model.space.cells):
            for j, setting in enumerate(table.settings):
                v = float(table.values[i, j])
                where = f"side{table.side}[{cell},{setting}]"
                if not math.isfinite(v):
                    violations.append(Violation("non-finite", where, v))
                elif v < -MODEL_TOL or v > 1.0 + MODEL_TOL:
                    violations.append(Violation("range", where, v))
    return ValidationReport(tuple(violations))


def marginal_probability(model: FactorizableModel, setting: str, side: int) -> float:
    """p(X) = sum over cells of weight * P_side(cell, X)."""
    table = model.response1 if side == 1 else model.response2
    return float(model.space.weights @ table.column(setting))


def joint_probability(model: FactorizableModel, settingA: str, settingB: str) -> float:
    """p(X,Y) = sum over cells of weight * P1(cell, X) * P2(cell, Y)."""
    p1 = model.response1.column(settingA)
    p2 = model.response2.column(settingB)
    return float(model.space.weights @ (p1 * p2))


# The outcomes (a, c, b, d) of the formal joint distribution over the
# settings A, C of side 1 and B, D of side 2, 1 = "yes", in lexicographic
# order.
OUTCOME_TUPLES = tuple(itertools.product((0, 1), repeat=4))

# The point each deterministic outcome gives in ProbabilitySet field order
# (pA, pB, pAB, pAD, pCB, pCD), one row per entry of OUTCOME_TUPLES: the
# local polytope is the convex hull of these rows (Fine, PRL 48, 291, 1982).
OUTCOME_VERTICES = _frozen(
    [(a, b, a * b, a * d, c * b, c * d) for a, c, b, d in OUTCOME_TUPLES], float
)

# Equality system of the feasibility LP over the 16 outcome weights: the
# weights sum to 1 and reproduce each of the six quantities.
_FEASIBILITY_A_EQ = _frozen(np.vstack([np.ones(len(OUTCOME_TUPLES)), OUTCOME_VERTICES.T]))


@dataclass(frozen=True)
class FourOutcomeJoint:
    """Formal joint distribution over the four settings (A, C, B, D).

    Not directly measurable (A and C are incompatible settings on the same
    side); its existence is what characterizes factorizable statistics.
    Two joints are equal when their probabilities are; as a dict field makes
    it, the class is unhashable.
    """

    probabilities: dict[tuple[int, int, int, int], float]

    def __post_init__(self):
        if set(self.probabilities) != set(OUTCOME_TUPLES):
            raise ValueError("probabilities must cover all 16 outcome tuples")
        total = sum(self.probabilities.values())
        if any(p < -MODEL_TOL for p in self.probabilities.values()):
            raise ValueError("negative outcome probability")
        if abs(total - 1.0) > PAIR_TOL:
            raise ValueError(f"outcome probabilities sum to {total}, not 1")


def probability_set_from_model(model: FactorizableModel) -> ProbabilitySet:
    """The six CH quantities of a model: the marginals of its first setting
    on each side and the pairs of CANONICAL_PAIRS."""
    return ProbabilitySet(
        marginal_probability(model, SIDE1_SETTINGS[0], 1),
        marginal_probability(model, SIDE2_SETTINGS[0], 2),
        *(joint_probability(model, x, y) for x, y in CANONICAL_PAIRS),
    )


@dataclass(frozen=True)
class FacetCertificate:
    """A violated facet of the local polytope, as evidence of infeasibility."""

    name: str
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class Feasible:
    witness: FourOutcomeJoint


@dataclass(frozen=True)
class Infeasible:
    certificate: FacetCertificate


# Facets of the hull of OUTCOME_VERTICES, the projection of the 16-outcome
# simplex onto the six measurable quantities.  The CH combination appears with
# both its upper and lower bound; the remaining CH relabelings involve the
# unrecorded marginals p(C), p(D) and survive projection only as the
# Frechet-style bounds below.  Each entry: (name, coefficients, offset) for
# coeff . x <= offset.
CH_FAMILY_FACETS: tuple[tuple[str, tuple[float, ...], float], ...] = (
    ("CH", (-1, -1, 1, 1, 1, -1), 0.0),
    ("CH-lower", (1, 1, -1, -1, -1, 1), 1.0),
    ("bound pAB <= pA", (-1, 0, 1, 0, 0, 0), 0.0),
    ("bound pAB <= pB", (0, -1, 1, 0, 0, 0), 0.0),
    ("bound pAD <= pA", (-1, 0, 0, 1, 0, 0), 0.0),
    ("bound pCB <= pB", (0, -1, 0, 0, 1, 0), 0.0),
    ("bound pAB >= 0", (0, 0, -1, 0, 0, 0), 0.0),
    ("bound pAD >= 0", (0, 0, 0, -1, 0, 0), 0.0),
    ("bound pCB >= 0", (0, 0, 0, 0, -1, 0), 0.0),
    ("bound pCD >= 0", (0, 0, 0, 0, 0, -1), 0.0),
    ("bound pAB >= pA+pB-1", (1, 1, -1, 0, 0, 0), 1.0),
    ("bound pCD <= 1-pA+pAD", (1, 0, 0, -1, 0, 1), 1.0),
    ("bound pCD <= 1-pB+pCB", (0, 1, 0, 0, -1, 1), 1.0),
)


def _least_slack_facet(ps: ProbabilitySet) -> FacetCertificate:
    """The CH-family facet with the least slack at ps, the first on ties."""
    x = tuple(ps.as_dict().values())
    lhs = [sum(c * v for c, v in zip(coeff, x)) for _, coeff, _ in CH_FAMILY_FACETS]
    k = min(range(len(lhs)), key=lambda i: CH_FAMILY_FACETS[i][2] - lhs[i])
    name, _, offset = CH_FAMILY_FACETS[k]
    return FacetCertificate(name=name, lhs=lhs[k], rhs=offset)


def scan_ch_family(ps: ProbabilitySet) -> Optional[FacetCertificate]:
    """Return the most violated CH-family facet, or None if every facet
    holds within PAIR_TOL."""
    cert = _least_slack_facet(ps)
    return cert if cert.margin < -PAIR_TOL else None


# linprog's post-solve tolerance at its default HiGHS tol of 1e-9: a solution
# counts as optimal only within this of its bounds and equality rows.
LP_RESIDUAL_TOL = math.sqrt(1e-9) * 10


def sparse_matrix(a: np.ndarray):
    """a as the CSC matrix milp hands HiGHS, with read-only data.

    The same matrix milp builds from the dense a (its zeros, -0.0 among
    them, are not stored); scipy.sparse is imported on the first call, so
    import bellkit does not load it.
    """
    from scipy.sparse import csc_array

    m = csc_array(a)
    m.data = _frozen(m.data)
    return m


@functools.cache
def _feasibility_matrix():
    """_FEASIBILITY_A_EQ in sparse form, built on the first solve."""
    return sparse_matrix(_FEASIBILITY_A_EQ)


def solve_equality_lp(c: np.ndarray, a_eq, b_eq: np.ndarray, upper: float):
    """Minimize c.x subject to a_eq x = b_eq and 0 <= x <= upper, by HiGHS.

    a_eq is a CSC matrix (sparse_matrix), so milp passes it on as it is
    instead of converting a dense array on every call.  milp with no
    integrality hands HiGHS the LP without linprog's per-call option
    handling and input cleaning, and presolve is off: on LPs of 7 x 16 and
    9 x 82 it costs more than it saves.  The check linprog makes after the
    solve is kept: an optimal status whose x is missing, not finite,
    outside its bounds, or off an equality row by more than
    LP_RESIDUAL_TOL becomes status 4.  Returns milp's result, whose status
    is 0 only for a checked optimum.  Where the optimum is not unique, the
    vertex HiGHS returns without presolve may differ from the one it
    returned with it.
    """
    from scipy.optimize import milp

    res = milp(
        c, constraints=(a_eq, b_eq, b_eq), bounds=(0.0, upper), options={"presolve": False}
    )
    x = res.x
    if res.status == 0 and not (
        x is not None
        and np.isfinite(x).all()
        and x.min() >= -LP_RESIDUAL_TOL
        and x.max() <= upper + LP_RESIDUAL_TOL
        and np.abs(a_eq @ x - b_eq).max() <= LP_RESIDUAL_TOL
    ):
        res.status = 4
        res.message = (
            f"the solution misses its bounds or equality rows by more than {LP_RESIDUAL_TOL:.2e}"
        )
    return res


def joint_feasibility(ps: ProbabilitySet) -> Union[Feasible, Infeasible]:
    """Decide whether a joint distribution over (A, C, B, D) matches ps.

    Linear-program feasibility over the 16 outcome weights with equality
    constraints for the six given probabilities.  On success the recovered
    joint over (A, C, B, D) is the witness; on failure the certificate is
    the CH-family facet with the least slack at ps.
    """
    b_eq = np.array((1.0, *ps.as_dict().values()))
    res = solve_equality_lp(np.zeros(len(OUTCOME_TUPLES)), _feasibility_matrix(), b_eq, 1.0)
    if res.status == 0:
        q = np.clip(res.x, 0.0, None)
        q = q / q.sum()
        return Feasible(witness=FourOutcomeJoint(dict(zip(OUTCOME_TUPLES, map(float, q)))))
    return Infeasible(certificate=_least_slack_facet(ps))
