"""A from-scratch Hungarian (Kuhn–Munkres) assignment solver.

The star edit distance and the bipartite GED approximation both reduce to
the linear sum assignment problem.  Production call sites import
``linear_sum_assignment`` from :mod:`repro.ged.lsap` — SciPy's LAPJV (C
speed), reached without importing the rest of ``scipy.optimize``; this
module provides an independent O(n³) potentials-based implementation that
the test suite cross-validates against SciPy — so the repository is
self-contained down to the assignment solver, and a SciPy regression would
be caught.

The algorithm is the shortest-augmenting-path formulation with dual
potentials (Jonker–Volgenant family): rows are inserted one at a time and
an augmenting path of minimum reduced cost is grown with Dijkstra-style
labels ``minv``.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import require

_INF = float("inf")


def hungarian(cost) -> tuple[list[int], float]:
    """Solve the square linear sum assignment problem.

    Parameters
    ----------
    cost:
        An ``(n, n)`` array-like of finite costs.

    Returns
    -------
    (assignment, total):
        ``assignment[i]`` is the column assigned to row ``i``; ``total`` is
        the minimised sum of ``cost[i][assignment[i]]``.
    """
    matrix = np.asarray(cost, dtype=float)
    require(matrix.ndim == 2, f"cost must be 2-D, got {matrix.ndim}-D")
    require(
        matrix.shape[0] == matrix.shape[1],
        f"cost must be square, got {matrix.shape}; pad rectangular problems first",
    )
    require(bool(np.isfinite(matrix).all()), "cost entries must be finite")
    n = matrix.shape[0]
    if n == 0:
        return [], 0.0

    # 1-indexed potentials and matching, per the classic formulation:
    # u — row potentials, v — column potentials, p[j] — row matched to
    # column j (0 = unmatched), way[j] — previous column on the augmenting
    # path ending at j.
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)

    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [_INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = _INF
            j1 = 0
            row = matrix[i0 - 1]
            u_i0 = u[i0]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u_i0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        # Unwind the augmenting path.
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    assignment = [0] * n
    for j in range(1, n + 1):
        if p[j] != 0:
            assignment[p[j] - 1] = j - 1
    total = float(sum(matrix[i, assignment[i]] for i in range(n)))
    return assignment, total


def assignment_cost(cost) -> float:
    """Minimum total cost of a square assignment problem (value only)."""
    _, total = hungarian(cost)
    return total
