"""repro.obs — zero-dependency observability for the whole library.

One module-level switch controls a process-wide
:class:`~repro.obs.registry.MetricsRegistry` (counters, gauges, timers,
histograms with explicit buckets) and a
:class:`~repro.obs.tracing.Tracer` (nested spans).  Instrumented code —
the distance engine, the GED metrics, index build/query, the greedy
algorithms — always calls the hot-path helpers below; with observability
*off* (the default) those helpers hit no-op implementations and cost
essentially nothing (guarded by ``benchmarks/bench_obs_overhead.py``).

Typical usage::

    import repro

    with repro.observe() as run:          # flips the global switch on
        index = repro.NBIndex.build(database, distance, seed=7)
        result = index.query(q, theta=8.0, k=10)
        run.report()                      # pretty-print counters + spans
        run.write("metrics.json")         # JSON document (spans included)
        run.write("metrics.prom")         # Prometheus text format

or from the CLI: ``repro query db.jsonl --metrics out.json --trace``.

A process that does work on another's behalf can take a delta of its own
registry and spans (:func:`export_state`) and ship it back for the parent
to fold in (:func:`merge_state`): counters add and the foreign spans nest
under the span open at the merge.  :func:`repro.utils.fanout.fan_out` ships its
build children's work back this way; replica workers' per-query deltas
are to use the same pair (ROADMAP, explain item).

Setting the ``REPRO_OBS`` environment variable to ``1`` enables
observability at CLI/benchmark startup (:func:`maybe_enable_from_env`),
which is how every benchmark script emits a metrics sidecar without code
changes.
"""

from __future__ import annotations

import os

from repro.obs.exporters import (
    metrics_document,
    to_json,
    to_prometheus,
    write_metrics,
)
from repro.obs.registry import (
    SIZE_BUCKETS,
    TIME_BUCKETS,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.report import render, report
from repro.obs.stats import Statable, collect_stats, process_memory
from repro.obs.tracing import NullTracer, Tracer

__all__ = [
    "MetricsRegistry",
    "NullRegistry",
    "Tracer",
    "NullTracer",
    "Statable",
    "collect_stats",
    "process_memory",
    "SIZE_BUCKETS",
    "TIME_BUCKETS",
    "enable",
    "disable",
    "enabled",
    "observe",
    "Observation",
    "get_registry",
    "get_tracer",
    "reset",
    "counter",
    "gauge",
    "observe_time",
    "histogram",
    "timer",
    "span",
    "export_state",
    "merge_state",
    "metrics_document",
    "to_json",
    "to_prometheus",
    "write_metrics",
    "render",
    "report",
    "maybe_enable_from_env",
]

_registry = NullRegistry()
_tracer = NullTracer()


# ---------------------------------------------------------------------------
# Switch
# ---------------------------------------------------------------------------
def get_registry():
    """The active registry (:class:`NullRegistry` when observability is off)."""
    return _registry


def get_tracer():
    """The active tracer (:class:`NullTracer` when observability is off)."""
    return _tracer


def enabled() -> bool:
    """Whether observability is currently recording."""
    return _registry.enabled


def enable(fresh: bool = False) -> MetricsRegistry:
    """Install a recording registry + tracer; returns the registry.

    Idempotent: an already-enabled registry is kept (its data intact)
    unless ``fresh=True``, which always starts empty — what a forked
    process needs to shed the state it inherited.
    """
    global _registry, _tracer
    if fresh or not _registry.enabled:
        _registry = MetricsRegistry()
        _tracer = Tracer()
    return _registry


def disable() -> None:
    """Return to the no-op registry/tracer (recorded data is dropped)."""
    global _registry, _tracer
    _registry = NullRegistry()
    _tracer = NullTracer()


def reset() -> None:
    """Zero the active registry and tracer (keeps observability on)."""
    _registry.reset()
    _tracer.reset()


def maybe_enable_from_env() -> bool:
    """Enable observability when ``REPRO_OBS`` is set truthy; returns it."""
    if os.environ.get("REPRO_OBS", "").strip().lower() in {"1", "true", "yes", "on"}:
        enable()
        return True
    return False


class Observation:
    """Handle for one observed region; also a context manager.

    Created by :func:`observe` (re-exported as :func:`repro.observe`).
    Exiting the ``with`` block restores whatever registry/tracer were
    active before, so observations nest cleanly in tests.
    """

    def __init__(self, registry, tracer, previous):
        self.registry = registry
        self.tracer = tracer
        self._previous = previous

    def __enter__(self) -> "Observation":
        return self

    def __exit__(self, *exc) -> None:
        global _registry, _tracer
        _registry, _tracer = self._previous

    def stats(self) -> dict:
        """Statable protocol: the registry snapshot."""
        return self.registry.snapshot()

    def spans(self) -> list[dict]:
        return self.tracer.snapshot()

    def document(self, include_spans: bool = True) -> dict:
        return {
            "schema": "repro.obs/v1",
            "metrics": self.registry.snapshot(),
            "spans": self.tracer.snapshot() if include_spans else [],
        }

    def write(self, path, include_spans: bool = True):
        """Write metrics to ``path`` (.prom → Prometheus, else JSON)."""
        from pathlib import Path

        from repro.obs.exporters import to_json as _to_json

        path = Path(path)
        if path.suffix == ".prom":
            path.write_text(to_prometheus(self.registry.snapshot()))
        else:
            path.write_text(_to_json(self.document(include_spans=include_spans)))
        return path

    def report(self, file=None) -> str:
        return report(self.document(), file=file)

    def __repr__(self) -> str:
        return f"Observation(registry={self.registry!r})"


def observe(on: bool = True) -> Observation:
    """Flip observability on (or off) and return the session handle.

    The single public entry point re-exported as ``repro.observe()``.  The
    handle restores the previous state when used as a context manager.
    """
    previous = (_registry, _tracer)
    if on:
        enable()
    else:
        disable()
    return Observation(_registry, _tracer, previous)


# ---------------------------------------------------------------------------
# Hot-path helpers (always safe to call; no-ops when disabled)
# ---------------------------------------------------------------------------
def counter(name: str, value=1) -> None:
    _registry.counter(name, value)


def gauge(name: str, value) -> None:
    _registry.gauge(name, value)


def observe_time(name: str, seconds: float) -> None:
    _registry.observe(name, seconds)


def histogram(name: str, value, buckets=SIZE_BUCKETS) -> None:
    _registry.histogram(name, value, buckets)


def timer(name: str):
    return _registry.timer(name)


def span(name: str, **attrs):
    return _tracer.span(name, **attrs)


# ---------------------------------------------------------------------------
# Cross-process aggregation
# ---------------------------------------------------------------------------
def export_state(reset_after: bool = False) -> dict:
    """Snapshot the registry + spans, optionally resetting (worker deltas)."""
    state = {"metrics": _registry.snapshot(), "spans": _tracer.snapshot()}
    if reset_after:
        reset()
    return state


def merge_state(state: dict, **span_attrs) -> None:
    """Fold an :func:`export_state` payload from another process in.

    Counters/timers/histograms add into the active registry; the foreign
    spans are attached under the currently open span (with ``span_attrs``
    stamped on, e.g. ``worker_pid``).
    """
    if not _registry.enabled or not state:
        return
    _registry.merge(state.get("metrics", {}))
    _tracer.attach(state.get("spans", []), **span_attrs)
