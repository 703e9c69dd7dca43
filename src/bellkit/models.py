"""Factorizable (local-realistic) probability models on a discrete hidden space.

The hidden variable is discretized into finitely many cells with explicit
weights, so all integrals become finite sums and tests can be exact.  Each
side carries its own response table: the detection probability at a setting
depends only on the cell and the local setting (parameter independence by
construction).  joint_feasibility decides by LP whether six CH quantities
admit such a model; inequalities holds the facets that certify a refusal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np

from .inequalities import CANONICAL_PAIRS, CH_FAMILY_FACETS, PAIR_TOL, InequalityReport, check_json
from .inequalities import SIDE1_SETTINGS, SIDE2_SETTINGS, ProbabilitySet, least_slack_facet

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
# local polytope is their convex hull, whose facets are CH_FAMILY_FACETS.
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
class Feasible:
    witness: FourOutcomeJoint


@dataclass(frozen=True)
class Infeasible:
    certificate: InequalityReport


def scan_ch_family(ps: ProbabilitySet) -> Optional[InequalityReport]:
    """The verdict of the most violated CH-family facet, or None if every
    facet holds within PAIR_TOL."""
    cert = least_slack_facet(ps)
    return cert if cert.margin < -PAIR_TOL else None


# linprog's post-solve tolerance at its default HiGHS tol of 1e-9: a solution
# counts as optimal only within this of its bounds and equality rows.
LP_RESIDUAL_TOL = math.sqrt(1e-9) * 10


# linprog's status number of each HiGHS model status; any other is 4.
_LP_STATUS = {"kOptimal": 0, "kIterationLimit": 1, "kInfeasible": 2, "kUnbounded": 3}


def solve_equality_lp(c: np.ndarray, a_eq: np.ndarray, b_eq: np.ndarray, upper: float):
    """Minimize c.x subject to a_eq x = b_eq and 0 <= x <= upper, by HiGHS.

    Each call hands HiGHS the LP on a fresh solver, through the bindings
    scipy ships, so that no answer depends on the calls before it; a_eq goes
    column-wise without its zeros (-0.0 among them), as milp would pass it.
    Presolve is off: on LPs of 7 x 16 and 9 x 82 it costs more than it
    saves.  linprog's post-solve check is kept: an optimum whose x is not
    finite, outside its bounds, or off an equality row by more than
    LP_RESIDUAL_TOL becomes status 4.  Returns (status, x, message) with
    linprog's status numbers; x is None unless status is 0.
    """
    from scipy.optimize._highspy import _core as highs

    cols, rows = np.nonzero(a_eq.T)
    lp = highs.HighsLp()
    lp.num_row_, lp.num_col_ = lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = a_eq.shape
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, np.zeros_like(c), np.full_like(c, upper)
    lp.row_lower_ = lp.row_upper_ = b_eq
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.searchsorted(cols, np.arange(len(c) + 1))
    lp.a_matrix_.index_, lp.a_matrix_.value_ = rows, a_eq[rows, cols]
    solver = highs._Highs()
    solver.setOptionValue("presolve", "off")
    solver.setOptionValue("log_to_console", False)
    solver.passModel(lp)  # a model it refuses is not solved: status 4
    solver.run()
    model_status = solver.getModelStatus()
    status = _LP_STATUS.get(model_status.name, 4)
    if status != 0:
        return status, None, solver.modelStatusToString(model_status)
    x = np.array(solver.getSolution().col_value)
    if not (
        np.isfinite(x).all()
        and x.min() >= -LP_RESIDUAL_TOL
        and x.max() <= upper + LP_RESIDUAL_TOL
        and np.abs(a_eq @ x - b_eq).max() <= LP_RESIDUAL_TOL
    ):
        return 4, None, f"the solution misses its bounds or rows by more than {LP_RESIDUAL_TOL:.2e}"
    return 0, x, "optimal"


def joint_feasibility(ps: ProbabilitySet) -> Union[Feasible, Infeasible]:
    """Decide whether a joint distribution over (A, C, B, D) matches ps.

    Linear-program feasibility over the 16 outcome weights with equality
    constraints for the six given probabilities.  On success the recovered
    joint over (A, C, B, D) is the witness; on failure the certificate is
    least_slack_facet(ps), the violated facet verdict with the least slack.
    """
    b_eq = np.array((1.0, *ps.as_dict().values()))
    status, x, _ = solve_equality_lp(np.zeros(len(OUTCOME_TUPLES)), _FEASIBILITY_A_EQ, b_eq, 1.0)
    if status == 0:
        q = np.clip(x, 0.0, None)
        q = q / q.sum()
        return Feasible(witness=FourOutcomeJoint(dict(zip(OUTCOME_TUPLES, map(float, q)))))
    return Infeasible(certificate=least_slack_facet(ps))
