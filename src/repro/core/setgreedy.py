"""Reference set-based greedy — the pre-bitset coverage hot path.

These are the per-id Python ``set`` implementations of Algorithm 1 that
:mod:`repro.core.greedy` used before the packed-bitset kernel rewrite,
preserved verbatim for two consumers:

* the **dual-run equivalence gate** (``tests/test_hotpath_identity.py``
  and ``repro bench-hotpath``), which runs both implementations on the
  same inputs and asserts bit-identical answers, gains, ordering and
  coverage; and
* the **hot-path benchmark** (:mod:`repro.bench.hotpath`), which reports
  the end-to-end speedup of the bitset engines against exactly this
  code.

They are *not* deprecated aliases — they intentionally keep the
O(k · |L_q| · |N̂|) per-element set arithmetic so the comparison stays
honest.  Production callers should use :func:`repro.core.baseline_greedy`
and :func:`repro.core.lazy_greedy`.
"""

from __future__ import annotations

import time

from repro import obs
from repro.core.representative import (
    RangeQueryFn,
    all_theta_neighborhoods,
)
from repro.core.results import QueryResult, QueryStats
from repro.ged.metric import CountingDistance, GraphDistanceFn
from repro.graphs.database import GraphDatabase
from repro.utils.validation import require_positive


def baseline_greedy_sets(
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
    """Algorithm 1 with Python-set coverage bookkeeping (reference)."""
    require_positive(theta, "theta")
    require_positive(k, "k")
    stats = QueryStats()
    counting = engine if engine is not None else CountingDistance(distance)
    calls_before = counting.calls

    with obs.span("greedy.run", kind="baseline-sets", theta=theta, k=k):
        started = time.perf_counter()
        relevant = [int(i) for i in database.relevant_indices(query_fn)]
        neighborhoods = all_theta_neighborhoods(
            database, counting, relevant, theta, range_query=range_query,
            engine=engine,
        )
        stats.init_seconds = time.perf_counter() - started
        stats.exact_neighborhoods = len(neighborhoods)

        started = time.perf_counter()
        answer: list[int] = []
        gains: list[int] = []
        covered: set[int] = set()
        remaining = set(relevant)
        for _ in range(min(k, len(relevant))):
            best = None
            best_gain = -1
            # Iterate in id order so equal gains resolve to the smallest id.
            for gid in sorted(remaining):
                stats.gain_evaluations += 1
                gain = len(neighborhoods[gid] - covered)
                if gain > best_gain:
                    best_gain = gain
                    best = gid
            if best is None:
                break
            if best_gain == 0 and stop_on_zero_gain:
                break
            answer.append(best)
            gains.append(best_gain)
            covered |= neighborhoods[best]
            remaining.discard(best)
        stats.search_seconds = time.perf_counter() - started
        stats.distance_calls = counting.calls - calls_before
        obs.counter("greedy.gain_evaluations", stats.gain_evaluations)
        obs.counter("greedy.runs")

    return QueryResult(
        answer=answer,
        gains=gains,
        covered=frozenset(covered),
        num_relevant=len(relevant),
        theta=theta,
        stats=stats,
    )


def lazy_greedy_sets(
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
    """Lazy greedy with Python-set coverage bookkeeping (reference)."""
    import heapq

    require_positive(theta, "theta")
    require_positive(k, "k")
    stats = QueryStats()
    counting = engine if engine is not None else CountingDistance(distance)
    calls_before = counting.calls

    with obs.span("greedy.run", kind="lazy-sets", theta=theta, k=k):
        started = time.perf_counter()
        relevant = [int(i) for i in database.relevant_indices(query_fn)]
        neighborhoods = all_theta_neighborhoods(
            database, counting, relevant, theta, range_query=range_query,
            engine=engine,
        )
        stats.init_seconds = time.perf_counter() - started

        started = time.perf_counter()
        answer: list[int] = []
        gains: list[int] = []
        covered: set[int] = set()
        # Heap of (-gain, gid, generation); a stale generation triggers
        # re-evaluation.  gid ascending gives smallest-id tie-breaking.
        heap = [(-len(neighborhoods[gid]), gid, 0) for gid in sorted(relevant)]
        heapq.heapify(heap)
        stats.gain_evaluations = len(heap)
        generation = 0
        while heap and len(answer) < min(k, len(relevant)):
            neg_gain, gid, entry_generation = heapq.heappop(heap)
            if entry_generation != generation:
                stats.gain_evaluations += 1
                stats.reheap_count += 1
                fresh = len(neighborhoods[gid] - covered)
                heapq.heappush(heap, (-fresh, gid, generation))
                continue
            gain = -neg_gain
            if gain == 0 and stop_on_zero_gain:
                break
            answer.append(gid)
            gains.append(gain)
            covered |= neighborhoods[gid]
            generation += 1
        stats.search_seconds = time.perf_counter() - started
        stats.distance_calls = counting.calls - calls_before
        obs.counter("greedy.gain_evaluations", stats.gain_evaluations)
        obs.counter("greedy.lazy.reheap", stats.reheap_count)
        obs.counter("greedy.runs")

    return QueryResult(
        answer=answer,
        gains=gains,
        covered=frozenset(covered),
        num_relevant=len(relevant),
        theta=theta,
        stats=stats,
    )
