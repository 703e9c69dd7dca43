"""Seeded input generation for the benchmark workloads.

Every generator is a pure function of the workload seed and returns plain
Python and numpy data, so one seed always gives the same inputs and the
program under test only sees what is generated here.  Program objects
(models, probability sets) are built from these inputs during set-up.
"""

from __future__ import annotations

import math

import numpy as np

# 0.10, 0.15, ..., 1.00: the saturated region eta <= 0.75 (0.75 is exact),
# the range 0.75 < eta < 1, and eta = 1.
ETA_GRID = tuple(k / 20 for k in range(2, 21))

# The five probability levels of the criterion-6 grid traffic.
GRID_LEVELS = np.linspace(0.0, 1.0, 5)

# Pairs simulated per setting pair by `bellkit simulate`.
N_PAIRS = 10**6


def _rng(seed: int, stream: int) -> np.random.Generator:
    # one independent stream per workload, so adding a draw to one workload
    # leaves the inputs of the others unchanged
    return np.random.default_rng([stream, seed])


def cli_cycles(seed: int, n: int) -> list[dict]:
    """Parameters of n simulate/analyze/report/predict/search cycles.

    V spans both sides of sqrt(2)/2, so `predict` takes both branches of the
    minimum-efficiency formula.  The search efficiencies run through
    seed-shuffled passes over ETA_GRID, so n cycles hold the same efficiencies
    for every seed when n is a multiple of its length: the solve time depends
    on eta, and a seed should change the order of the work, not its amount.
    """
    rng = _rng(seed, 1)
    cycles = []
    for _ in range(n):
        cycles.append(
            {
                "v": float(rng.uniform(0.5, 1.0)),
                "pdc_eta": float(rng.uniform(0.05, 0.5)),
                "sample_seed": int(rng.integers(0, 2**31)),
                "theta": float(rng.uniform(0.2, math.pi / 2)),
                "zeta": float(rng.uniform(0.2, 1.0)),
            }
        )
    passes = -(-n // len(ETA_GRID))
    etas = [ETA_GRID[i] for _ in range(passes) for i in rng.permutation(len(ETA_GRID))]
    for cycle, eta in zip(cycles, etas):
        cycle["search_eta"] = float(eta)
    return cycles


def cycle_config(cycle: dict) -> str:
    """INI text of one cycle's config, with [pdc], [cascade] and [analysis]."""
    return (
        "[pdc]\n"
        f"v = {cycle['v']!r}\n"
        f"eta = {cycle['pdc_eta']!r}\n"
        "r0 = 1.0\n"
        "\n[cascade]\n"
        f"theta = {cycle['theta']!r}\n"
        f"zeta = {cycle['zeta']!r}\n"
        "\n[analysis]\n"
        f"n_pairs = {N_PAIRS}\n"
    )


def feasibility_stream(seed: int, n: int) -> list[tuple]:
    """n points alternating a random factorizable model with a grid point.

    Model points are ("model", weights, side-1 table, side-2 table) with 1-6
    cells and columns (A, C) and (B, D): all of them are feasible.  Grid
    points are ("grid", (pA, pB, pAB, pAD, pCB, pCD)) on five levels, with
    every pair probability at most min(pA, pB); about a third of them lie
    outside the local polytope.
    """
    rng = _rng(seed, 2)
    points: list[tuple] = []
    for i in range(n):
        if i % 2 == 0:
            cells = int(rng.integers(1, 7))
            weights = rng.dirichlet(np.ones(cells))
            points.append(("model", weights, rng.random((cells, 2)), rng.random((cells, 2))))
        else:
            p_a, p_b = rng.choice(GRID_LEVELS, size=2)
            pairs = rng.choice(GRID_LEVELS, size=4) * min(p_a, p_b)
            points.append(("grid", (float(p_a), float(p_b), *(float(p) for p in pairs))))
    return points


def eta_order(seed: int) -> list[float]:
    """The efficiency grid in a seed-shuffled order."""
    rng = _rng(seed, 3)
    return [ETA_GRID[i] for i in rng.permutation(len(ETA_GRID))]
