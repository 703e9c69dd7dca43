import json
import threading
from pathlib import Path

import numpy as np
import pytest

from bellkit.models import (
    OUTCOME_TUPLES,
    FactorizableModel,
    FourOutcomeJoint,
    HiddenVariableSpace,
    ResponseTable,
)

SIDE1 = ("A", "C")
SIDE2 = ("B", "D")


def random_model(rng: np.random.Generator, max_cells: int = 6) -> FactorizableModel:
    """A random valid factorizable model on the canonical settings."""
    n = int(rng.integers(1, max_cells + 1))
    weights = rng.dirichlet(np.ones(n))
    cells = tuple(f"c{i}" for i in range(n))
    r1 = ResponseTable(1, SIDE1, rng.random((n, 2)))
    r2 = ResponseTable(2, SIDE2, rng.random((n, 2)))
    return FactorizableModel(HiddenVariableSpace(cells, weights), r1, r2)


def model_json(model: FactorizableModel) -> dict:
    """The saved form of a model, the document FactorizableModel.from_json
    and `bellkit validate` read."""
    data = {"cells": list(model.space.cells), "weights": model.space.weights.tolist()}
    for r in (model.response1, model.response2):
        data[f"side{r.side}"] = {"settings": list(r.settings), "table": r.values.tolist()}
    return data


def save_model(model: FactorizableModel, path) -> None:
    """Write model_json(model) to path as indented JSON."""
    Path(path).write_text(json.dumps(model_json(model), indent=2, allow_nan=False), encoding="utf-8")


def formal_joint_distribution(model: FactorizableModel) -> FourOutcomeJoint:
    """Joint distribution over A, C, B, D induced by the hidden variable
    (Fine, PRL 48, 291, 1982).

    Within each cell the four outcomes are independent with the table
    probabilities; the mixture over cells reproduces every measurable
    marginal and pair probability of the model.
    """
    w = model.space.weights
    pA, pC = map(model.response1.column, SIDE1)
    pB, pD = map(model.response2.column, SIDE2)
    probs = {}
    for a, c, b, d in OUTCOME_TUPLES:
        qa = pA if a else 1.0 - pA
        qc = pC if c else 1.0 - pC
        qb = pB if b else 1.0 - pB
        qd = pD if d else 1.0 - pD
        probs[(a, c, b, d)] = float(w @ (qa * qc * qb * qd))
    return FourOutcomeJoint(probs)


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


@pytest.fixture
def solver_off_one_row(monkeypatch):
    """Patch the HiGHS bindings so that every LP is solved with its last
    equality row moved by 1e-3: each optimum the solver returns misses that
    row of the LP it was asked for by 1e-3.  Yields the model status name
    the solver reported for each solve."""
    from scipy.optimize._highspy import _core

    from bellkit import models

    statuses = []

    class Shifted(_core._Highs):
        def passModel(self, *args):
            # the array form: arguments 9 and 10 are the row bounds
            bounds = np.array(args[9])
            bounds[-1] += 1e-3
            return super().passModel(*args[:9], bounds, bounds, *args[11:])

        def run(self):
            status = super().run()
            statuses.append(self.getModelStatus().name)
            return status

    monkeypatch.setattr(_core, "_Highs", Shifted)
    # a fresh per-thread store, so that the next solve makes a Shifted solver
    monkeypatch.setattr(models, "_SOLVERS", threading.local())
    yield statuses
