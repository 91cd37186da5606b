"""The threshold filter every query runs between candidates and exact
distances.

``d(source, t) ≤ θ`` is decided for a block of targets in three steps,
cheapest first, and which steps run is a fact about the engine, never a
choice of the caller:

1. the **assignment lower bound** — EmbAssi-style label matching cost plus
   half the L1 gap of the sorted degree sequences
   (:func:`repro.ged.bounds.assignment_lower_bound`, vectorized by
   :class:`~repro.cascade.features.StageFeatures`) — iff the engine
   verifies with a unit-cost :class:`~repro.ged.ExactGED` and the
   references are index ids.  Against the star metric it removes < 1 % of
   exact calls and costs more than it saves (EXPERIMENTS.md), so there it
   does not run;
2. Theorem 4's **vantage sandwich** ``max_v |d(g,v) − d(h,v)| ≤ d(g,h) ≤
   min_v d(g,v) + d(h,v)`` iff an embedding is attached — the only step
   with an *upper* bound too, so it both prunes and accepts;
3. **exact** distances for the undecided rest.

Every step compares against the one threshold ``θ + eps``: each prune is
a sound lower bound and each accept a sound upper bound, so the mask
equals the unfiltered one.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.ged.costs import UNIT_COSTS
from repro.ged.exact import ExactGED

#: The single counter name for vantage/Chebyshev block evaluations: every
#: block pass is counted exactly once under it, whether it runs inside
#: ``VantageEmbedding.candidates``, a frontier's window or the sandwich
#: below.
BLOCK_EVALS = "cascade.vantage.block_evals"


def _assignment_bound_sound(engine) -> bool:
    """The assignment bound charges unit node and edge operations."""
    base = engine._base_distance
    return isinstance(base, ExactGED) and base.costs is UNIT_COSTS


class FilterCascade:
    """One query's filter runtime: the per-step counters."""

    __slots__ = ("counts",)

    #: Whether :meth:`run` adds the assignment bound where it is sound.
    structural = True

    def __init__(self):
        self.counts: dict[str, dict[str, float]] = {}

    # -- statistics ---------------------------------------------------
    def _record(self, name, evals, prunes, seconds, accepts=0):
        entry = self.counts.setdefault(
            name, {"evals": 0, "prunes": 0, "accepts": 0, "seconds": 0.0}
        )
        entry["evals"] += evals
        entry["prunes"] += prunes
        entry["accepts"] += accepts
        entry["seconds"] += seconds
        if obs.enabled():
            obs.counter(f"cascade.{name}.evals", evals)
            obs.counter(f"cascade.{name}.prunes", prunes)
            if accepts:
                obs.counter(f"cascade.{name}.accepts", accepts)
            obs.observe_time(f"cascade.{name}.seconds", seconds)

    def snapshot(self) -> dict:
        """Per-step counters for ``QueryStats.cascade`` (JSON-safe), keyed
        ``assignment`` / ``vantage``; a step that never ran is absent."""
        return {name: dict(entry) for name, entry in self.counts.items()}

    # -- the hot path -------------------------------------------------
    def run(
        self,
        engine,
        source,
        targets,
        theta: float,
        eps: float,
        *,
        prefiltered: bool = False,
    ) -> np.ndarray:
        """Boolean mask of ``d(source, t) ≤ θ + eps`` over ``targets``,
        with the bounds deciding what they can first.

        ``prefiltered=True`` asserts the caller already ran the vantage
        sandwich over these targets at this threshold and kept only the
        members it left undecided — a frontier's window does — so the
        vantage step is skipped: it would prune and accept nothing.
        """
        n = len(targets)
        mask = np.zeros(n, dtype=bool)
        if not n:
            return mask
        cutoff = theta + eps
        # Index references as one id array (an id array passes through
        # untouched); ``None`` when any side is a free-standing graph.
        ids = None
        if isinstance(source, (int, np.integer)):
            if isinstance(targets, np.ndarray):
                ids = targets
            elif all(isinstance(t, (int, np.integer)) for t in targets):
                ids = np.asarray(targets, dtype=np.int64)
        survivors = np.arange(n)
        if ids is not None:
            if self.structural and _assignment_bound_sound(engine):
                survivors = self._assignment_bound(engine, source, ids, cutoff)
            if (survivors.size and not prefiltered
                    and engine._embedding is not None):
                survivors = self._vantage_sandwich(
                    engine, source, ids, survivors, mask, cutoff
                )
        if survivors.size:
            if ids is not None:
                refs = ids[survivors]
            else:
                refs = [targets[p] for p in survivors]
            distances = engine.one_to_many(source, refs)
            mask[survivors] = distances <= cutoff
        return mask

    def _assignment_bound(self, engine, source, ids, cutoff):
        """Positions whose assignment lower bound leaves them possible."""
        started = time.perf_counter()
        bounds = engine.assignment_lb(source, ids)
        survivors = np.flatnonzero(bounds <= cutoff)
        self._record(
            "assignment", int(ids.size), int(ids.size - survivors.size),
            time.perf_counter() - started,
        )
        return survivors

    def _vantage_sandwich(self, engine, source, ids, survivors, mask, cutoff):
        """Lower-bound prune plus upper-bound accept (written into
        ``mask``); returns the positions still undecided."""
        started = time.perf_counter()
        coords = engine._embedding.coords
        source_row = coords[int(source)]
        obs.counter(BLOCK_EVALS)
        lower = np.max(np.abs(coords[ids[survivors]] - source_row), axis=1)
        keep = lower <= cutoff
        rejected = int(np.count_nonzero(~keep))
        undecided = survivors[keep]
        upper = np.min(coords[ids[undecided]] + source_row, axis=1)
        accepted = upper <= cutoff
        accepts = int(np.count_nonzero(accepted))
        with engine._cache_lock:
            engine.prefilter_lower_rejections += rejected
            engine.prefilter_upper_accepts += accepts
        mask[undecided[accepted]] = True
        remaining = undecided[~accepted]
        obs.counter("engine.prefilter.candidates", int(survivors.size))
        obs.counter("engine.prefilter.lower_rejections", rejected)
        obs.counter("engine.prefilter.upper_accepts", accepts)
        obs.counter("engine.prefilter.verified", int(remaining.size))
        self._record(
            "vantage", int(survivors.size), rejected,
            time.perf_counter() - started, accepts=accepts,
        )
        return remaining


class RefereeFilter(FilterCascade):
    """What :meth:`DistanceEngine.within` runs when no query hands it a
    runtime — ``baseline_greedy(engine=…)``, the tests' referees: the
    sandwich (if an embedding is attached) and exact.  It never
    adds the assignment bound, so the reference never runs the bound it
    referees."""

    __slots__ = ()
    structural = False
