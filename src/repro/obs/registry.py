"""Metric primitives: counters, gauges, timers and histograms.

Two implementations share one duck-typed interface.  :class:`MetricsRegistry`
records everything under a lock (instrumented code runs in the benchmark
harness's and the query service's threads); :class:`NullRegistry` — the default —
turns every recording call into an immediate no-op, so instrumentation left
in hot paths costs one attribute lookup and an empty call.  Consumers never
branch on "is observability on": they call the same methods either way, and
:func:`repro.obs.enable` swaps the registry underneath them.

The value vocabulary is deliberately small and Prometheus-shaped:

* **counter** — monotonically increasing total (``engine.evaluations``);
* **gauge** — last-write-wins sample (``engine.cache_size``);
* **timer** — an observation stream summarized as count/total/min/max,
  recorded via ``with registry.timer("service.reload_seconds"): ...`` or
  :meth:`MetricsRegistry.observe`;
* **histogram** — counts over *explicit* bucket upper bounds, with an
  implicit overflow bucket (``engine.batch_size``).

Snapshots are plain JSON-safe dicts (no ``inf``, no custom types), which is
also the merge format: :meth:`MetricsRegistry.merge` folds a snapshot from
another registry — e.g. one shipped back from another process — into
this one.
"""

from __future__ import annotations

import bisect
import threading
import time

#: Default bucket bounds for size-like histograms (batch sizes, candidate
#: counts).  An overflow bucket is always appended.
SIZE_BUCKETS = (1, 4, 16, 64, 256, 1024, 4096)

#: Default bucket bounds for duration-like histograms, in seconds.
TIME_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0)


class _NullTimer:
    """Context manager that does nothing (shared singleton)."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_TIMER = _NullTimer()


class NullRegistry:
    """The off-switch: every method is a no-op, every snapshot empty.

    This is the registry installed by default, so the instrumented hot
    paths pay only for the call dispatch (verified by
    ``benchmarks/bench_obs_overhead.py``).
    """

    enabled = False
    __slots__ = ()

    def counter(self, name, value=1):
        pass

    def gauge(self, name, value):
        pass

    def observe(self, name, seconds):
        pass

    def histogram(self, name, value, buckets=SIZE_BUCKETS):
        pass

    def timer(self, name):
        return _NULL_TIMER

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "timers": {}, "histograms": {}}

    def stats(self) -> dict:
        return self.snapshot()

    def merge(self, snapshot) -> None:
        pass

    def reset(self) -> None:
        pass

    def __repr__(self) -> str:
        return "NullRegistry()"


class _Timer:
    """Times a ``with`` block into ``registry.observe(name, seconds)``."""

    __slots__ = ("_registry", "_name", "_started")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name

    def __enter__(self):
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._registry.observe(self._name, time.perf_counter() - self._started)
        return False


class MetricsRegistry:
    """Thread-safe in-memory metrics store (the on-switch)."""

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        # name -> [count, total, min, max]
        self._timers: dict[str, list[float]] = {}
        # name -> {"buckets": tuple, "counts": list (len(buckets)+1 with
        # overflow), "sum": float, "count": int}
        self._histograms: dict[str, dict] = {}

    # -- recording -----------------------------------------------------
    def counter(self, name: str, value=1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            entry = self._timers.get(name)
            if entry is None:
                self._timers[name] = [1, seconds, seconds, seconds]
            else:
                entry[0] += 1
                entry[1] += seconds
                entry[2] = min(entry[2], seconds)
                entry[3] = max(entry[3], seconds)

    def timer(self, name: str) -> _Timer:
        return _Timer(self, name)

    def histogram(self, name: str, value, buckets=SIZE_BUCKETS) -> None:
        with self._lock:
            entry = self._histograms.get(name)
            if entry is None:
                bounds = tuple(float(b) for b in buckets)
                entry = {
                    "buckets": bounds,
                    "counts": [0] * (len(bounds) + 1),
                    "sum": 0.0,
                    "count": 0,
                }
                self._histograms[name] = entry
            position = bisect.bisect_left(entry["buckets"], value)
            entry["counts"][position] += 1
            entry["sum"] += value
            entry["count"] += 1

    # -- snapshots & merging -------------------------------------------
    def snapshot(self) -> dict:
        """Plain JSON-safe dict of everything recorded so far."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timers": {
                    name: {
                        "count": entry[0],
                        "total": entry[1],
                        "min": entry[2],
                        "max": entry[3],
                        "mean": entry[1] / entry[0] if entry[0] else 0.0,
                    }
                    for name, entry in self._timers.items()
                },
                "histograms": {
                    name: {
                        "buckets": list(entry["buckets"]),
                        "counts": list(entry["counts"]),
                        "sum": entry["sum"],
                        "count": entry["count"],
                    }
                    for name, entry in self._histograms.items()
                },
            }

    def stats(self) -> dict:
        """Statable protocol: the snapshot."""
        return self.snapshot()

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters, timer streams and same-bucket histograms add; gauges are
        last-write-wins.  This is how another process's registry
        delta is aggregated (:func:`repro.obs.merge_state`).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, value)
        for name, entry in snapshot.get("timers", {}).items():
            with self._lock:
                ours = self._timers.get(name)
                if ours is None:
                    self._timers[name] = [
                        entry["count"], entry["total"], entry["min"], entry["max"],
                    ]
                else:
                    ours[0] += entry["count"]
                    ours[1] += entry["total"]
                    ours[2] = min(ours[2], entry["min"])
                    ours[3] = max(ours[3], entry["max"])
        for name, entry in snapshot.get("histograms", {}).items():
            with self._lock:
                ours = self._histograms.get(name)
                bounds = tuple(float(b) for b in entry["buckets"])
                if ours is None:
                    self._histograms[name] = {
                        "buckets": bounds,
                        "counts": list(entry["counts"]),
                        "sum": entry["sum"],
                        "count": entry["count"],
                    }
                    continue
                if ours["buckets"] == bounds:
                    ours["counts"] = [
                        a + b for a, b in zip(ours["counts"], entry["counts"])
                    ]
                else:  # mismatched layouts: keep totals honest at least
                    ours["counts"][-1] += entry["count"]
                ours["sum"] += entry["sum"]
                ours["count"] += entry["count"]

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()
            self._histograms.clear()

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, timers={len(self._timers)}, "
                f"histograms={len(self._histograms)})"
            )
