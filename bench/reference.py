"""Operation times relative to a fixed reference kernel timed beside them.

A small shared host can run in speed phases that last from under a second to
minutes: on a 2-vCPU guest the same `maximize_s_star(0.8)` took 60 ms in one
2 s window and 90 ms in the next, with its CPU time moving alike.  No run
that fits the benchmark's time budget averages such phases out.

So a run also times a reference kernel, none of it bellkit, between
operations, every REF_INTERVAL_S.  Each operation's time is divided by the
median reference time measured within REF_WINDOW_S of it.  The quotient
follows the program and not the phase: over 2 s windows of the same
operation, the raw time spread 0.23 (interquartile range over median) and
its quotient by a pure-Python loop or by a fixed LP about 0.04.  The kernel
is the two together, the two kinds of work the operations are made of; a
numpy-only kernel tracked the phases worse.
"""

from __future__ import annotations

import time

import numpy as np

REF_INTERVAL_S = 0.2
REF_WINDOW_S = 0.6
REF_LEAST = 3  # reference samples per operation at the least

# a fixed LP: 16 non-negative variables, six equality rows, feasible
_LP_RNG = np.random.default_rng(20041019)
_LP_COST = _LP_RNG.random(16)
_LP_A = _LP_RNG.random((6, 16))
_LP_B = _LP_A @ np.full(16, 1 / 16)


def kernel() -> int:
    """Fixed work: a pure-Python loop and one LP solve."""
    # imported here, so that the benchmark's own import of bellkit is timed
    # with scipy not yet loaded
    from scipy.optimize import linprog

    total, table = 0, {}
    for i in range(6000):
        total += i * i % 7
        table[i % 97] = total
    res = linprog(_LP_COST, A_eq=_LP_A, b_eq=_LP_B, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return total


class Timeline:
    """Operation and reference-kernel times of one run, on one clock."""

    def __init__(self, interval: float = REF_INTERVAL_S):
        self.interval = interval
        self.ops: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.refs: list[tuple[float, float]] = []
        self.next_ref = 0.0

    def reference(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.refs.append(((t0 + t1) / 2, t1 - t0))
        self.next_ref = t1 + self.interval

    def op(self, t0: float, t1: float) -> None:
        """Record an operation; time the kernel if it is due."""
        self.ops.append(((t0 + t1) / 2, t1 - t0))
        if t1 >= self.next_ref:
            self.reference()

    def relative(self) -> list[float]:
        return relative(self.ops, self.refs)


def relative(ops, refs, window: float = REF_WINDOW_S, least: int = REF_LEAST) -> list[float]:
    """Each operation's seconds over the median reference seconds within
    `window` of its midpoint, or over the `least` nearest if fewer lie there."""
    ref_t = np.array([t for t, _ in refs])
    ref_d = np.array([d for _, d in refs])
    out = []
    for t, d in ops:
        dist = np.abs(ref_t - t)
        near = ref_d[dist <= window]
        if len(near) < least:
            near = ref_d[np.argsort(dist, kind="stable")[:least]]
        out.append(d / float(np.median(near)))
    return out
