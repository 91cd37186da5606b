"""Answer quality (π) vs deadline budget — the degradation ladder's cost.

The resilience layer (``repro.resilience``) lets a query trade exactness
for latency: when a :class:`~repro.resilience.Deadline` expires, exact A*
GED calls degrade to polynomial upper bounds (beam, then bipartite — see
``docs/resilience.md``).  Upper bounds can only shrink θ-neighborhoods,
so π can only be *under*-reported — the answer stays valid, never
inflated.  This benchmark sweeps the time budget from "unlimited" down to
"already expired" on an exact-GED index and reports the achieved π,
answer size and degradation counts per budget, quantifying what a
deadline actually costs.

Runnable standalone (``python benchmarks/bench_degradation.py``) or
under pytest; both write the table under ``results/``.
"""

from __future__ import annotations

import time

from repro.ged import ExactGED
from repro.graphs import quartile_relevance
from repro.index import NBIndex
from repro.resilience import Deadline

#: Wall-clock budgets to sweep (milliseconds); ``None`` = no deadline,
#: ``0.0`` = already expired at query start (every exact call degrades).
BUDGETS_MS = (None, 200.0, 50.0, 10.0, 0.0)


def degradation_benchmark(
    num_graphs: int = 24,
    seed: int = 11,
    theta: float = 4.0,
    k: int = 3,
):
    from repro.bench.harness import ExperimentResult

    try:
        from tests.conftest import random_database
    except ImportError:  # standalone run: repo root not on sys.path
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
        from tests.conftest import random_database

    database = random_database(
        seed=seed, size=num_graphs, min_nodes=3, max_nodes=5
    )
    distance = ExactGED()
    query_fn = quartile_relevance(database, quantile=0.3)
    index = NBIndex.build(
        database, distance, num_vantage_points=4, seed=seed,
    )

    rows = []
    for budget_ms in BUDGETS_MS:
        # Each budget recomputes its distances from scratch — cached exact
        # values would mask the deadline.
        index.engine._cache.clear()
        deadline = None if budget_ms is None else Deadline.from_timeout_ms(budget_ms)
        started = time.perf_counter()
        result = index.query(query_fn, theta, k, deadline=deadline)
        elapsed = time.perf_counter() - started
        rows.append({
            "budget_ms": "none" if budget_ms is None else f"{budget_ms:g}",
            "pi": result.pi,
            "answer_size": len(result.answer),
            "covered": len(result.covered),
            "degraded": result.stats.degraded,
            "degradation_events": result.stats.degradation_events,
            "query_s": elapsed,
        })
    return ExperimentResult(
        name="degradation_deadline",
        columns=["budget_ms", "pi", "answer_size", "covered",
                 "degraded", "degradation_events", "query_s"],
        rows=rows,
        notes=(
            f"exact-GED index, n={num_graphs} θ={theta:g} k={k}; deadline "
            "degradations replace exact GED with upper bounds, so π is a "
            "lower bound on the exact-distance π"
        ),
    )


def _check(result) -> None:
    by_budget = {row["budget_ms"]: row for row in result.rows}
    unlimited = by_budget["none"]
    expired = by_budget["0"]
    assert not unlimited["degraded"], "no deadline must mean no degradation"
    assert expired["degraded"], "an expired deadline must degrade"
    assert expired["degradation_events"] > 0
    for row in result.rows:
        assert 0.0 <= row["pi"] <= 1.0
        assert row["answer_size"] > 0, "degraded queries still answer"


def test_degradation_deadline(benchmark):
    from conftest import run_once

    from repro.bench.printers import print_and_save

    result = run_once(benchmark, degradation_benchmark)
    print_and_save(result)
    _check(result)


if __name__ == "__main__":
    from repro.bench.printers import print_and_save

    outcome = degradation_benchmark()
    print_and_save(outcome)
    _check(outcome)
