"""Baseline greedy for top-k representative queries (Algorithm 1).

The (1 − 1/e)-approximate greedy of Section 5: materialize every relevant
graph's θ-neighborhood, then repeatedly add the graph with the largest
marginal coverage.  The neighborhood materialization costs O(|L_q|²) edit
distances — exactly the bottleneck the NB-Index removes — which is why this
implementation also accepts a range-query backend (C-tree, M-tree, distance
matrix) for the scalability comparisons of Figs. 2(b), 5(i–k) and 6(b–g).

Coverage bookkeeping runs on the packed-bitset kernel
(:mod:`repro.bitset`): neighborhoods are rows of one ``(|L_q|, words)``
uint64 matrix, the covered set is a word array, and every marginal gain is
a vectorized ``popcount(row & ~covered)`` — the whole argmax scan of one
greedy round is a single batch :func:`~repro.bitset.uncovered_counts`
call.  Answers are bit-identical to a per-id Python-``set`` greedy; the
dual-run gate in ``tests/test_hotpath_identity.py`` keeps that oracle and
enforces it.

Tie-breaking is deterministic: among graphs of equal marginal gain the one
with the smallest database id wins, making the trajectory reproducible and
directly comparable across engines.  (Bitset rows are ordered by ascending
id, so ``argmax`` lands on exactly that winner.)
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.bitset import BitsetUniverse, kernel
from repro.core.representative import (
    RangeQueryFn,
    all_theta_neighborhoods,
)
from repro.core.results import QueryResult, QueryStats
from repro.ged.metric import CountingDistance, GraphDistanceFn
from repro.graphs.database import GraphDatabase
from repro.utils.validation import require_positive


class CoverageState:
    """Packed coverage state shared by both greedy variants.

    One instance per query: the relevant-id universe, the θ-neighborhoods
    packed as a ``(|L_q|, words)`` uint64 matrix (row order = ascending
    id), and the running covered bitset.  Both :func:`baseline_greedy` and
    :func:`lazy_greedy` select through :meth:`take` — the single
    implementation of the selection/coverage-update step their loop bodies
    used to duplicate.
    """

    def __init__(self, relevant, neighborhoods):
        self.universe = BitsetUniverse(relevant)
        self.matrix = self.universe.empty_matrix(self.universe.size)
        for position, gid in enumerate(self.universe.ids):
            members = np.fromiter(
                neighborhoods[int(gid)], dtype=np.int64,
                count=len(neighborhoods[int(gid)]),
            )
            self.matrix[position] = self.universe.encode_ids(members)
        self.covered = self.universe.empty()

    @classmethod
    def from_range_query(cls, relevant, range_query, theta):
        """Build coverage straight from a range-query backend.

        Each row is the backend's candidate block intersected with the
        universe and packed in one vectorized pass — no per-id frozenset
        materialization.  Membership matches
        :func:`~repro.core.representative.all_theta_neighborhoods` with
        the same backend: candidates restricted to the relevant set, plus
        the graph itself.
        """
        self = cls.__new__(cls)
        self.universe = BitsetUniverse(relevant)
        self.matrix = self.universe.empty_matrix(self.universe.size)
        for position, gid in enumerate(self.universe.ids):
            positions = self.universe.member_positions(
                np.asarray(range_query(int(gid), theta), dtype=np.int64)
            )
            row = kernel.from_positions(positions, self.universe.size)
            kernel.set_bit(row, position)
            self.matrix[position] = row
        self.covered = self.universe.empty()
        return self

    def sizes(self) -> np.ndarray:
        """``|N_θ(g)|`` per row — the lazy heap's initial gains."""
        return kernel.popcount_rows(self.matrix)

    def gains(self) -> np.ndarray:
        """Marginal gain of every row against the current coverage."""
        return kernel.uncovered_counts(self.matrix, self.covered)

    def gain(self, position: int) -> int:
        """Marginal gain of one row (lazy re-evaluation)."""
        return kernel.uncovered_count(self.matrix[position], self.covered)

    def take(self, position: int, answer: list[int], gains: list[int]) -> int:
        """Select one graph: record id and exact gain, fold its
        neighborhood into the covered set.  Returns the gain."""
        gain = kernel.uncovered_count(self.matrix[position], self.covered)
        answer.append(int(self.universe.ids[position]))
        gains.append(int(gain))
        kernel.union_into(self.covered, self.matrix[position])
        return int(gain)

    def covered_ids(self) -> frozenset[int]:
        return self.universe.decode_frozenset(self.covered)


def baseline_greedy(
    database: GraphDatabase,
    distance: GraphDistanceFn,
    query_fn,
    theta: float,
    k: int,
    *,
    range_query: RangeQueryFn | None = None,
    stop_on_zero_gain: bool = False,
    engine=None,
) -> QueryResult:
    """Run Algorithm 1.

    Parameters
    ----------
    database, distance:
        The graph database and its metric.
    query_fn:
        Relevance function (see :mod:`repro.graphs.relevance`).
    theta, k:
        Distance threshold and answer budget.
    range_query:
        Optional ``(gid, theta) → candidate ids`` backend used to compute
        θ-neighborhoods instead of all-pairs distance evaluation.
    stop_on_zero_gain:
        End early once no graph adds coverage (the paper's Algorithm 1
        always runs k iterations; this switch is for analyses that prefer
        minimal answer sets).
    engine:
        Optional :class:`~repro.engine.DistanceEngine`; the O(|L_q|²)
        neighborhood materialization then runs as row batches.  The
        selected answer, gains and coverage are identical.
    """
    require_positive(theta, "theta")
    require_positive(k, "k")
    stats = QueryStats()
    counting = engine if engine is not None else CountingDistance(distance)
    calls_before = counting.calls

    with obs.span("greedy.run", kind="baseline", theta=theta, k=k):
        started = time.perf_counter()
        relevant = [int(i) for i in database.relevant_indices(query_fn)]
        if range_query is not None:
            coverage = CoverageState.from_range_query(
                relevant, range_query, theta
            )
        else:
            neighborhoods = all_theta_neighborhoods(
                database, counting, relevant, theta, engine=engine,
            )
            coverage = CoverageState(relevant, neighborhoods)
        stats.init_seconds = time.perf_counter() - started
        stats.exact_neighborhoods = len(relevant)

        started = time.perf_counter()
        answer: list[int] = []
        gains: list[int] = []
        remaining = np.ones(coverage.universe.size, dtype=bool)
        for _ in range(min(k, len(relevant))):
            live = int(np.count_nonzero(remaining))
            if not live:
                break
            stats.gain_evaluations += live
            # One batch popcount scans every remaining row; rows are in
            # ascending-id order, so argmax resolves equal gains to the
            # smallest id — the canonical tie-break.
            row_gains = coverage.gains()
            row_gains[~remaining] = -1
            best_position = int(np.argmax(row_gains))
            if row_gains[best_position] == 0 and stop_on_zero_gain:
                break
            coverage.take(best_position, answer, gains)
            remaining[best_position] = False
        stats.search_seconds = time.perf_counter() - started
        stats.distance_calls = counting.calls - calls_before
        obs.counter("greedy.gain_evaluations", stats.gain_evaluations)
        obs.counter("greedy.runs")

    return QueryResult(
        answer=answer,
        gains=gains,
        covered=coverage.covered_ids(),
        num_relevant=len(relevant),
        theta=theta,
        stats=stats,
    )


def lazy_greedy(
    database: GraphDatabase,
    distance: GraphDistanceFn,
    query_fn,
    theta: float,
    k: int,
    *,
    range_query: RangeQueryFn | None = None,
    stop_on_zero_gain: bool = False,
    engine=None,
) -> QueryResult:
    """Index-free lazy greedy — Algorithm 1 with a max-heap of stale gains.

    Identical output to :func:`baseline_greedy` (same tie-breaking), but
    re-evaluates marginal gains only when a stale entry surfaces.  Isolates
    the benefit of laziness from the benefit of the NB-Index bounds in the
    ablation benchmarks.
    """
    import heapq

    require_positive(theta, "theta")
    require_positive(k, "k")
    stats = QueryStats()
    counting = engine if engine is not None else CountingDistance(distance)
    calls_before = counting.calls

    with obs.span("greedy.run", kind="lazy", theta=theta, k=k):
        started = time.perf_counter()
        relevant = [int(i) for i in database.relevant_indices(query_fn)]
        if range_query is not None:
            coverage = CoverageState.from_range_query(
                relevant, range_query, theta
            )
        else:
            neighborhoods = all_theta_neighborhoods(
                database, counting, relevant, theta, engine=engine,
            )
            coverage = CoverageState(relevant, neighborhoods)
        stats.init_seconds = time.perf_counter() - started

        started = time.perf_counter()
        answer: list[int] = []
        gains: list[int] = []
        universe = coverage.universe
        # Heap of (-gain, gid, generation); a stale generation triggers
        # re-evaluation.  gid ascending gives smallest-id tie-breaking.
        sizes = coverage.sizes()
        heap = [
            (-int(sizes[position]), int(gid), 0)
            for position, gid in enumerate(universe.ids)
        ]
        heapq.heapify(heap)
        stats.gain_evaluations = len(heap)
        generation = 0
        while heap and len(answer) < min(k, len(relevant)):
            neg_gain, gid, entry_generation = heapq.heappop(heap)
            position = universe.position(gid)
            if entry_generation != generation:
                stats.gain_evaluations += 1
                stats.reheap_count += 1
                fresh = coverage.gain(position)
                heapq.heappush(heap, (-fresh, gid, generation))
                continue
            if -neg_gain == 0 and stop_on_zero_gain:
                break
            coverage.take(position, answer, gains)
            generation += 1
        stats.search_seconds = time.perf_counter() - started
        stats.distance_calls = counting.calls - calls_before
        obs.counter("greedy.gain_evaluations", stats.gain_evaluations)
        obs.counter("greedy.lazy.reheap", stats.reheap_count)
        obs.counter("greedy.runs")

    return QueryResult(
        answer=answer,
        gains=gains,
        covered=coverage.covered_ids(),
        num_relevant=len(relevant),
        theta=theta,
        stats=stats,
    )
