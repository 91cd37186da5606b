"""Precomputed distance-matrix oracle — the best-case runtime comparator.

The inset of the paper's Fig. 5(i) benchmarks the NB-Index against an
engine with the *entire pairwise distance matrix precomputed*: query-time
work is pure array scanning, at the price of O(n²) construction time and
O(n²) memory — infeasible at scale, but the fastest any index-free engine
can possibly be.  :class:`DistanceMatrixOracle` provides that engine:
range queries are row scans and the greedy loop never touches a real edit
distance.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.results import QueryResult, QueryStats
from repro.ged.metric import SLACK, GraphDistanceFn, pairwise_matrix
from repro.graphs.database import GraphDatabase
from repro.utils.validation import require_positive


class DistanceMatrixOracle:
    """Fully materialized pairwise distances over a database (``distance``
    is the metric or a :class:`~repro.engine.DistanceEngine` over it)."""

    def __init__(self, database: GraphDatabase, distance: GraphDistanceFn):
        self.database = database
        started = time.perf_counter()
        self.matrix = pairwise_matrix(database.graphs, distance)
        self.build_seconds = time.perf_counter() - started

    def distance(self, i: int, j: int) -> float:
        return float(self.matrix[i, j])

    def range_query(self, gid: int, theta: float) -> np.ndarray:
        """Row scan: every database id within θ of ``gid``."""
        return np.flatnonzero(self.matrix[gid] <= theta + SLACK)

    def memory_bytes(self) -> int:
        return int(self.matrix.nbytes)

    def greedy(self, query_fn, theta: float, k: int) -> QueryResult:
        """Algorithm 1 running entirely on the matrix."""
        require_positive(theta, "theta")
        require_positive(k, "k")
        stats = QueryStats()
        started = time.perf_counter()
        relevant = np.asarray(self.database.relevant_indices(query_fn))
        relevant_set = set(int(i) for i in relevant)
        sub = self.matrix[np.ix_(relevant, relevant)]
        within = sub <= theta + SLACK
        neighborhoods = {
            int(gid): frozenset(
                int(relevant[j]) for j in np.flatnonzero(within[pos])
            )
            for pos, gid in enumerate(relevant)
        }
        stats.init_seconds = time.perf_counter() - started

        started = time.perf_counter()
        answer: list[int] = []
        gains: list[int] = []
        covered: set[int] = set()
        remaining = set(relevant_set)
        for _ in range(min(k, len(relevant_set))):
            best = None
            best_gain = -1
            for gid in sorted(remaining):
                gain = len(neighborhoods[gid] - covered)
                if gain > best_gain:
                    best_gain = gain
                    best = gid
            if best is None:
                break
            answer.append(best)
            gains.append(best_gain)
            covered |= neighborhoods[best]
            remaining.discard(best)
        stats.search_seconds = time.perf_counter() - started

        return QueryResult(
            answer=answer,
            gains=gains,
            covered=frozenset(covered),
            num_relevant=len(relevant_set),
            theta=theta,
            stats=stats,
        )

    def __repr__(self) -> str:
        return f"<DistanceMatrixOracle n={len(self.database)}>"
