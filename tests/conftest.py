import numpy as np
import pytest

from bellkit.models import FactorizableModel, HiddenVariableSpace, ResponseTable

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


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


@pytest.fixture
def milp_off_one_row(monkeypatch):
    """Patch scipy's milp to solve every LP with its last equality row moved
    by 1e-3, so each optimum it returns misses that row of the LP it was
    asked for by 1e-3.  Yields the solver statuses it returned."""
    import scipy.optimize

    real_milp = scipy.optimize.milp
    statuses = []

    def shifted(c, *, constraints, **kwargs):
        a_eq, b_eq, _ = constraints
        b_eq = np.array(b_eq, dtype=float)
        b_eq[-1] += 1e-3
        res = real_milp(c, constraints=(a_eq, b_eq, b_eq), **kwargs)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(scipy.optimize, "milp", shifted)
    yield statuses
