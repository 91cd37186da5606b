"""Query-service load benchmark: throughput and tail latency vs offered
load, with and without shedding, plus the engine cache-lock guard.

Three measurements on one small in-process service:

* **load sweep (shedding on)** — clients offer requests at increasing
  rates against a bounded queue; admitted requests finish with bounded
  p99 latency while excess load is rejected with ``overloaded``.
* **load sweep (shedding off)** — the same offered load against an
  effectively unbounded queue; everything is admitted, and the p99 of
  the high-load rows shows the queueing delay shedding exists to avoid.
* **cache-lock overhead** — the ``DistanceEngine`` pair-cache lock added
  for service worker threads must cost < 5% on the single-threaded query
  workload (min-of-repeats A/B against a null lock, in the style of
  ``bench_obs_overhead``).

Runnable standalone (``python benchmarks/bench_service_load.py``), which
writes ``BENCH_service_load.json`` at the repository root, or under
pytest at smoke size, which writes its document under the test's
``tmp_path``.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from pathlib import Path

from repro.ged.star import StarDistance
from repro.graphs import quartile_relevance
from repro.index.nbindex import NBIndex
from repro.service import Overloaded, QueryRequest, QueryService, ServiceConfig

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_service_load.json"

#: Allowed slowdown of the locked pair cache vs a null lock (serial path).
LOCK_BUDGET = 0.05


# ---------------------------------------------------------------------------
# Load sweep
# ---------------------------------------------------------------------------
def _build_service(db, *, max_queue):
    index = NBIndex.build(
        db, StarDistance(), num_vantage_points=6, seed=7
    )
    config = ServiceConfig(max_concurrency=2, max_queue=max_queue)
    return QueryService(index, config=config).start()


def _offer_load(service, *, rate_per_s, duration_s, theta, k):
    """Open-loop arrivals at a fixed rate; returns latency + outcome data.

    A collector thread waits tickets in admission order so each latency is
    stamped when its response resolves, not when the offering loop ends
    (workers drain the queue FIFO, so admission order ≈ completion order).
    """
    import queue as queue_module

    latencies = []
    pending: queue_module.Queue = queue_module.Queue()
    done = object()

    def collect():
        while True:
            item = pending.get()
            if item is done:
                return
            submitted, ticket = item
            response = ticket.wait(60.0)
            if response is not None and response.get("ok"):
                latencies.append(time.perf_counter() - submitted)

    collector = threading.Thread(target=collect, daemon=True)
    collector.start()

    admitted = 0
    shed = 0
    interval = 1.0 / rate_per_s
    started = time.perf_counter()
    n = 0
    while True:
        now = time.perf_counter() - started
        if now >= duration_s:
            break
        target = n * interval
        if target > now:
            time.sleep(target - now)
        n += 1
        try:
            ticket = service.submit(QueryRequest(id=n, theta=theta, k=k))
        except Overloaded:
            shed += 1
        else:
            admitted += 1
            pending.put((time.perf_counter(), ticket))
    pending.put(done)
    collector.join(120.0)
    elapsed = time.perf_counter() - started
    return {
        "offered": n,
        "admitted": admitted,
        "shed": shed,
        "completed": len(latencies),
        "elapsed_s": elapsed,
        "latencies": sorted(latencies),
    }


def _pct(sorted_values, q):
    if not sorted_values:
        return None
    pos = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[pos]


def load_sweep(db, *, theta, k, rates, duration_s):
    rows = []
    for shedding in (True, False):
        # "Shedding off" = a queue deep enough to swallow the whole run.
        max_queue = 16 if shedding else 100_000
        for rate in rates:
            service = _build_service(db, max_queue=max_queue)
            # Warm the relevance/cache paths so rows compare steady states.
            service.call(QueryRequest(id=0, theta=theta, k=k))
            data = _offer_load(
                service, rate_per_s=rate, duration_s=duration_s,
                theta=theta, k=k,
            )
            service.drain()
            latencies = data.pop("latencies")
            rows.append({
                "shedding": shedding,
                "offered_per_s": rate,
                **data,
                "throughput_per_s": data["completed"] / data["elapsed_s"],
                "p50_ms": (_pct(latencies, 0.50) or 0) * 1e3,
                "p99_ms": (_pct(latencies, 0.99) or 0) * 1e3,
            })
    return rows


# ---------------------------------------------------------------------------
# Cache-lock overhead guard
# ---------------------------------------------------------------------------
class _NullLock:
    """A context manager that costs as close to nothing as Python allows."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


@contextlib.contextmanager
def _null_cache_lock(engine):
    saved = engine._cache_lock
    engine._cache_lock = _NullLock()
    try:
        yield
    finally:
        engine._cache_lock = saved


def lock_overhead(db, *, theta, k, rounds=80, repeats=6):
    index = NBIndex.build(
        db, StarDistance(), num_vantage_points=6, seed=7
    )
    query_fn = quartile_relevance(db)
    engine = index.engine
    index.query(query_fn, theta, k)  # warm caches before timing

    def workload():
        started = time.perf_counter()
        for _ in range(rounds):
            index.query(query_fn, theta, k)
        return time.perf_counter() - started

    timings = {"null_lock": [], "locked": []}
    for _ in range(repeats):  # interleaved so drift hits both alike
        with _null_cache_lock(engine):
            timings["null_lock"].append(workload())
        timings["locked"].append(workload())
    best = {variant: min(values) for variant, values in timings.items()}
    overhead = best["locked"] / best["null_lock"] - 1.0
    return {
        "null_lock_s": best["null_lock"],
        "locked_s": best["locked"],
        "overhead": overhead,
        "budget": LOCK_BUDGET,
        "within_budget": overhead <= LOCK_BUDGET,
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
def service_load_benchmark(
    num_graphs: int = 80,
    seed: int = 11,
    theta: float = 8.0,
    k: int = 3,
    rates=(50, 200, 1000),
    duration_s: float = 1.5,
):
    from repro.datasets import GENERATORS

    db = GENERATORS["dblp"](num_graphs=num_graphs, seed=seed)
    sweep = load_sweep(db, theta=theta, k=k, rates=rates,
                       duration_s=duration_s)
    lock = lock_overhead(db, theta=theta, k=k)
    document = {
        "benchmark": "service_load",
        "dataset": f"dblp n={num_graphs} seed={seed}",
        "theta": theta,
        "k": k,
        "duration_s": duration_s,
        "load_sweep": sweep,
        "cache_lock": lock,
    }
    return document


def _save(document, path: Path = _JSON_PATH) -> None:
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {path}")


def _print_summary(document):
    header = (f"{'shed':<6}{'offered/s':>10}{'admitted':>10}{'shed#':>8}"
              f"{'thru/s':>9}{'p50 ms':>9}{'p99 ms':>9}")
    print(header)
    for row in document["load_sweep"]:
        print(f"{str(row['shedding']):<6}{row['offered_per_s']:>10}"
              f"{row['admitted']:>10}{row['shed']:>8}"
              f"{row['throughput_per_s']:>9.1f}"
              f"{row['p50_ms']:>9.1f}{row['p99_ms']:>9.1f}")
    lock = document["cache_lock"]
    print(f"cache lock overhead: {lock['overhead']:+.2%} "
          f"(budget {lock['budget']:.0%}) "
          f"{'OK' if lock['within_budget'] else 'EXCEEDED'}")


def test_service_load(tmp_path):
    document = service_load_benchmark(duration_s=0.8, rates=(20, 150))
    _save(document, tmp_path / _JSON_PATH.name)
    _print_summary(document)
    assert document["cache_lock"]["within_budget"], document["cache_lock"]
    for row in document["load_sweep"]:
        assert row["completed"] == row["admitted"], row  # every ticket answers


if __name__ == "__main__":
    outcome = service_load_benchmark()
    _save(outcome)
    _print_summary(outcome)
    if not outcome["cache_lock"]["within_budget"]:
        raise SystemExit(
            f"pair-cache lock exceeds the {LOCK_BUDGET:.0%} budget: "
            f"{outcome['cache_lock']['overhead']:+.2%}"
        )
