"""Distance facades: the metric protocol, counting and the full matrix.

Every index structure and algorithm in the library takes a *distance* — any
callable ``(LabeledGraph, LabeledGraph) → float`` — and evaluates it through
a :class:`~repro.engine.DistanceEngine` (batching and the symmetric pair
cache live there).  :class:`CountingDistance` counts evaluations of the
metric under an engine or the reference greedy, because "number of edit
distance computations" is the quantity the paper's index design optimizes
(e.g. "< 1% of the candidate pairs" during index construction, Sec. 8.3.2).

:func:`pairwise_matrix` materializes a full distance matrix — the paper's
"best-case running time" baseline (inset of Fig. 5(i)).
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

import numpy as np

from repro.graphs.graph import LabeledGraph

GraphDistanceFn = Callable[[LabeledGraph, LabeledGraph], float]

#: The one slack of every distance-vs-threshold test: ``d`` is within θ
#: when ``d <= θ + SLACK``.  Far above float rounding in sums of edit
#: costs, far below any distance gap that matters.  Theorem 3's premise
#: reads ``d > 2(θ + SLACK)`` for this relation (docs/theory.md).
SLACK = 1e-9


class GraphDistance(Protocol):
    """Structural distance between two labelled graphs."""

    def __call__(self, g1: LabeledGraph, g2: LabeledGraph) -> float: ...


class CountingDistance:
    """Wrap a distance and count how many times it is evaluated."""

    def __init__(self, inner: GraphDistanceFn):
        self.inner = inner
        self.calls = 0

    def __call__(self, g1: LabeledGraph, g2: LabeledGraph) -> float:
        self.calls += 1
        return self.inner(g1, g2)

    def reset(self) -> None:
        self.calls = 0

    def stats(self) -> dict:
        """Counter snapshot, merged with a wrapped engine's: counting
        *over* an engine, ``calls`` includes the pairs its cache served
        while ``evaluations`` is what reached the real metric."""
        stats = {"calls": self.calls, "evaluations": self.calls}
        inner_stats = getattr(self.inner, "stats", None)
        if callable(inner_stats):
            inner = inner_stats()
            if "cache_misses" in inner:
                stats["evaluations"] = inner["evaluations"]
            for key, value in inner.items():
                stats.setdefault(key, value)
        return stats

    def __repr__(self) -> str:
        return f"CountingDistance(calls={self.calls}, inner={self.inner!r})"


def pairwise_matrix(
    graphs: Sequence[LabeledGraph],
    distance: GraphDistanceFn,
) -> np.ndarray:
    """Full symmetric pairwise distance matrix (zero diagonal).

    O(n²/2) distance evaluations — the cost the NB-Index exists to avoid;
    used as the best-case comparator and in exact tests.  The triangle is
    evaluated in row-major order, one engine batch per row.
    """
    from repro.engine import DistanceEngine

    return DistanceEngine.of(distance, graphs).matrix(graphs)


def check_metric_axioms(
    graphs: Sequence[LabeledGraph],
    distance: GraphDistanceFn,
    tolerance: float = SLACK,
) -> list[str]:
    """Exhaustively check metric axioms over a small set of graphs.

    Returns a list of human-readable violations (empty = all axioms hold).
    Intended for tests and for validating user-supplied distances before
    they are handed to the NB-Index, whose correctness depends on them.
    """
    violations: list[str] = []
    n = len(graphs)
    matrix = pairwise_matrix(graphs, distance)
    for i in range(n):
        if abs(float(distance(graphs[i], graphs[i]))) > tolerance:
            violations.append(f"d(g{i}, g{i}) != 0")
        for j in range(i + 1, n):
            forward = float(distance(graphs[i], graphs[j]))
            backward = float(distance(graphs[j], graphs[i]))
            if abs(forward - backward) > tolerance:
                violations.append(f"d(g{i}, g{j}) != d(g{j}, g{i})")
            if forward < -tolerance:
                violations.append(f"d(g{i}, g{j}) < 0")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if matrix[i, k] > matrix[i, j] + matrix[j, k] + tolerance:
                    violations.append(
                        f"triangle violated: d(g{i}, g{k}) > "
                        f"d(g{i}, g{j}) + d(g{j}, g{k})"
                    )
    return violations
