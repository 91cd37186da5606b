"""No-op observability overhead guard (<5%).

Every hot path in the library — the distance engine, the GED metrics, the
NB-Index build and query, the greedy algorithms — is instrumented with
``repro.obs`` helper calls that hit no-op implementations while
observability is off (the default).  This benchmark verifies that those
disabled call sites are effectively free:

* ``stubbed`` — the same workload with the ``repro.obs`` module-level
  helpers swapped for bare lambdas: the cheapest the instrumented call
  sites could possibly be, standing in for an uninstrumented build;
* ``disabled`` — the shipping default (``NullRegistry``/``NullTracer``);
* ``enabled`` — full recording, reported for information (recording is
  allowed to cost more; only the *disabled* path is guarded).

The guard asserts ``disabled ≤ stubbed × 1.05`` on min-of-repeats
timings of two legs — a batch of queries and a batch of index builds, each
sample at least half a second so scheduler noise stays well under the
budget — i.e. the off-by-default dispatch overhead stays under 5% of the
representative workload.  Per-call no-op helper costs are reported
alongside so a regression points at the offending helper.

Runnable standalone (``python benchmarks/bench_obs_overhead.py``) or
under pytest; both print the table and persist nothing.
"""

from __future__ import annotations

import contextlib
import gc
import math
import time

from repro import obs
from repro.ged.star import StarDistance
from repro.graphs import quartile_relevance
from repro.index.nbindex import NBIndex

#: Allowed no-op overhead of the disabled obs path vs. bare-lambda stubs.
OVERHEAD_BUDGET = 0.05
#: Shortest timed sample of either leg: one ~50 ms build (or 40 queries,
#: ~0.1 s) moves by more than the budget from run to run.
_MIN_SAMPLE_S = 0.5

_HELPERS = ("counter", "gauge", "observe_time", "histogram", "timer", "span")


@contextlib.contextmanager
def _stubbed_helpers():
    """Swap the ``repro.obs`` hot-path helpers for bare lambdas.

    Instrumented modules call ``obs.counter(...)`` etc. through the module
    attribute, so rebinding here reaches every call site; this is the
    lower bound an uninstrumented build could achieve.
    """

    class _NullSpan:
        __slots__ = ()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def set(self, **attrs):
            pass

    null_span = _NullSpan()

    saved = {name: getattr(obs, name) for name in _HELPERS}
    try:
        obs.counter = lambda name, value=1: None
        obs.gauge = lambda name, value: None
        obs.observe_time = lambda name, seconds: None
        obs.histogram = lambda name, value, buckets=None: None
        obs.timer = lambda name: null_span
        obs.span = lambda name, **attrs: null_span
        yield
    finally:
        for name, fn in saved.items():
            setattr(obs, name, fn)


#: How each variant is switched on around one timed run.
_VARIANTS = {
    "stubbed": _stubbed_helpers,
    "disabled": contextlib.nullcontext,
    "enabled": obs.observe,
}


def _sample(work, variants, runs):
    """Seconds each variant spends on ``runs`` runs of ``work()``.  The
    variants alternate run by run, so a slow phase of a shared machine —
    they last seconds, a run lasts milliseconds — hits all of them alike,
    and the cyclic collector is off while they run (as in ``timeit``): a
    full collection lands on whichever variant happens to cross the
    allocation threshold, which alone moved the build leg by ±10 %."""
    totals = dict.fromkeys(variants, 0.0)
    gc.collect()
    gc.disable()
    try:
        for _ in range(runs):
            for variant in variants:
                with _VARIANTS[variant]():
                    started = time.perf_counter()
                    work()
                    totals[variant] += time.perf_counter() - started
    finally:
        gc.enable()
    return totals


def _per_call_nanos(fn, calls=200_000):
    started = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - started) / calls * 1e9


def obs_overhead_benchmark(
    num_graphs: int = 120,
    seed: int = 11,
    k: int = 5,
    rounds: int = 40,
    repeats: int = 5,
):
    from repro.bench.harness import ExperimentResult
    from repro.datasets import GENERATORS, calibrate_theta

    obs.disable()
    database = GENERATORS["dud"](num_graphs=num_graphs, seed=seed)
    distance = StarDistance()
    theta = calibrate_theta(database, distance, quantile=0.05, rng=seed)
    query_fn = quartile_relevance(database)
    index = NBIndex.build(
        database, distance, num_vantage_points=8, seed=seed
    )

    def query():
        index.query(query_fn, theta, k)

    def build():
        NBIndex.build(
            database, StarDistance(), num_vantage_points=8, seed=seed,
        )

    query()  # warm caches before timing
    warm_pass = _sample(query, ("disabled",), rounds)["disabled"]
    rounds *= max(1, math.ceil(_MIN_SAMPLE_S / warm_pass))
    builds_per_sample = max(1, math.ceil(_MIN_SAMPLE_S / index.build_seconds))

    timings = [_sample(query, tuple(_VARIANTS), rounds) for _ in range(repeats)]
    builds = [
        _sample(build, ("stubbed", "disabled"), builds_per_sample)
        for _ in range(repeats)
    ]
    best = {v: min(sample[v] for sample in timings) for v in timings[0]}
    best_build = {v: min(sample[v] for sample in builds) for v in builds[0]}

    def _span_once():
        with obs.span("bench.noop"):
            pass

    rows = [
        {
            "variant": variant,
            "total_s": best[variant],
            "per_query_ms": best[variant] / rounds * 1e3,
            "build_s": (
                best_build[variant] / builds_per_sample
                if variant in best_build else None
            ),
            "vs_stubbed": best[variant] / best["stubbed"] - 1.0,
            "build_vs_stubbed": (
                best_build[variant] / best_build["stubbed"] - 1.0
                if variant in best_build else None
            ),
        }
        for variant in ("stubbed", "disabled", "enabled")
    ]
    return ExperimentResult.from_rows(
        "obs_overhead", rows,
        notes=(
            f"dud n={num_graphs} k={k}, {rounds} queries and "
            f"{builds_per_sample} builds per repeat, "
            f"min of {repeats}; disabled-vs-stubbed overhead "
            f"{rows[1]['vs_stubbed']:+.2%} query / "
            f"{rows[1]['build_vs_stubbed']:+.2%} build "
            f"(budget {OVERHEAD_BUDGET:.0%}); "
            f"no-op per call: counter "
            f"{_per_call_nanos(lambda: obs.counter('bench.noop')):.0f}ns, "
            f"span {_per_call_nanos(_span_once):.0f}ns"
        ),
    )


def over_budget(result) -> str | None:
    """Print the table; name each leg of the disabled path that exceeds
    the budget (``None`` when both hold)."""
    from repro.bench.printers import format_table

    print(format_table(result))
    disabled = next(r for r in result.rows if r["variant"] == "disabled")
    failed = [
        f"{leg} {disabled[key]:+.2%}"
        for leg, key in (("query", "vs_stubbed"), ("build", "build_vs_stubbed"))
        if disabled[key] > OVERHEAD_BUDGET
    ]
    if not failed:
        return None
    return (
        f"disabled obs path exceeds the {OVERHEAD_BUDGET:.0%} no-op budget "
        f"vs stubbed helpers: {', '.join(failed)}"
    )


def test_obs_overhead(benchmark):
    from conftest import run_once

    failure = over_budget(run_once(benchmark, obs_overhead_benchmark))
    assert failure is None, failure


if __name__ == "__main__":
    raise SystemExit(over_budget(obs_overhead_benchmark()))
