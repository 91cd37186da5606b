"""The :class:`Statable` protocol — one shape for every stats surface.

Anything observable — the index, its :class:`~repro.engine.DistanceEngine`,
a :class:`~repro.ged.metric.CountingDistance`, a query's
:class:`~repro.core.results.QueryStats` — implements ``stats() -> dict``
of plain, JSON-safe values, and :func:`collect_stats` gathers several
components into one nested document.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable


@runtime_checkable
class Statable(Protocol):
    """Anything that reports its work as a plain dict.

    Implementors: :class:`~repro.engine.DistanceEngine`,
    :class:`~repro.ged.metric.CountingDistance`,
    :class:`~repro.index.nbindex.NBIndex`,
    :class:`~repro.core.results.QueryStats`,
    :class:`~repro.obs.registry.MetricsRegistry`, and the M-/C-tree
    baselines.  The dict must contain only JSON-serializable values
    (numbers, strings, lists, nested dicts).
    """

    def stats(self) -> dict: ...


def collect_stats(**components) -> dict:
    """Snapshot several Statable components into one nested dict.

    ``None`` components are skipped, so callers can pass optional layers
    unconditionally::

        collect_stats(engine=index.engine, index=index, query=result.stats)
    """
    collected = {}
    for name, component in components.items():
        if component is None:
            continue
        collected[name] = dict(component.stats())
    return collected


def process_memory(pid: int | str = "self") -> dict | None:
    """What one process holds: ``{"rss_mb", "peak_rss_mb"}`` (VmRSS and
    VmHWM of ``/proc/<pid>/status``), or ``None`` where that cannot be read
    — no ``/proc`` on this platform, or the process is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            fields = dict(line.split(":", 1) for line in handle)
        return {
            "rss_mb": int(fields["VmRSS"].split()[0]) / 1024.0,
            "peak_rss_mb": int(fields["VmHWM"].split()[0]) / 1024.0,
        }
    except (OSError, KeyError, ValueError):
        return None
