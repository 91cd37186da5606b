"""What a deadline does to a query: an exact answer, or a typed expiry.

A :class:`~repro.resilience.Deadline` cancels a query: once it expires,
the next distance batch, greedy round or A* stride raises
:class:`~repro.resilience.BudgetExceeded` (``docs/resilience.md``).  This
sweep runs each budget from "none" down to "already expired" on a cold
pair cache, over an exact-GED index (n = 24) and a star ``dud_like(1000)``
index, and reports per budget the outcome and how far past its expiry a
cancelled query ran.  Every answer returned must equal the unbudgeted one,
certificate included.  ``PYTHONPATH=src python benchmarks/bench_deadline.py``
(or pytest) writes ``results/deadline_cancellation.txt``.
"""

from __future__ import annotations

import statistics
import time

from repro.datasets.dud import dud_like
from repro.ged import ExactGED, StarDistance
from repro.graphs import quartile_relevance
from repro.index import NBIndex
from repro.resilience import BudgetExceeded, Deadline

#: Wall-clock budgets (ms); ``None`` = no deadline, 0 = expired at the start.
BUDGETS_MS = (None, 200.0, 50.0, 10.0, 0.0)
REPEATS = 5


def _indexes():
    """``(name, index, query_fn, theta, k)`` of the two swept indexes."""
    try:
        from tests.conftest import random_database
    except ImportError:  # standalone run: repo root not on sys.path
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
        from tests.conftest import random_database

    exact_db = random_database(seed=11, size=24, min_nodes=3, max_nodes=5)
    yield ("exact n=24", NBIndex.build(exact_db, ExactGED(), num_vantage_points=4, seed=11),
           quartile_relevance(exact_db, quantile=0.3), 4.0, 3)
    star_db = dud_like(1000, seed=11)
    yield ("star dud n=1000", NBIndex.build(star_db, StarDistance(), seed=11),
           quartile_relevance(star_db), 9.0, 5)


def _promise(result):
    return result.answer, result.gains, result.opt_upper, result.certified_ratio


def deadline_benchmark():
    from repro.bench.harness import ExperimentResult

    rows = []
    for name, index, query_fn, theta, k in _indexes():
        want = None
        for budget_ms in BUDGETS_MS:
            answered, overruns, seconds = 0, [], []
            for _ in range(REPEATS):
                index.engine._cache.clear()  # a cold query every time
                deadline = None if budget_ms is None else Deadline.from_timeout_ms(budget_ms)
                started = time.perf_counter()
                try:
                    result = index.query(query_fn, theta, k, deadline=deadline)
                except BudgetExceeded:
                    elapsed = time.perf_counter() - started
                    overruns.append(max(0.0, elapsed * 1000.0 - budget_ms))
                else:
                    elapsed = time.perf_counter() - started
                    want = want or _promise(result)
                    assert _promise(result) == want, (name, budget_ms)
                    answered += 1
                seconds.append(elapsed)
            rows.append({
                "index": name,
                "budget_ms": "none" if budget_ms is None else f"{budget_ms:g}",
                "exact": f"{answered}/{REPEATS}",
                "expired": f"{len(overruns)}/{REPEATS}",
                "overrun_ms_median": statistics.median(overruns) if overruns else "-",
                "overrun_ms_max": max(overruns) if overruns else "-",
                "query_ms_median": statistics.median(seconds) * 1000.0,
            })
    return ExperimentResult.from_rows("deadline_cancellation", rows, notes=(
        f"cold pair cache, {REPEATS} runs per budget; a query answers exactly "
        "(== the unbudgeted answer and certificate) or raises BudgetExceeded; "
        "overrun = wall time past the budget"))


def _check(result) -> None:
    rows = {(row["index"], row["budget_ms"]): row for row in result.rows}
    for name in {row["index"] for row in result.rows}:
        assert rows[name, "none"]["exact"] == f"{REPEATS}/{REPEATS}"
        assert rows[name, "0"]["expired"] == f"{REPEATS}/{REPEATS}"


def test_deadline_cancellation(benchmark):
    from conftest import run_once

    from repro.bench.printers import print_and_save

    result = run_once(benchmark, deadline_benchmark)
    print_and_save(result)
    _check(result)


if __name__ == "__main__":
    from repro.bench.printers import print_and_save

    outcome = deadline_benchmark()
    print_and_save(outcome)
    _check(outcome)
