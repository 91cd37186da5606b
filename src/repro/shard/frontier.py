"""Bundle query frontier: an index frontier that can see strangers.

A :class:`ShardFrontier` is an :class:`~repro.index.frontier.IndexFrontier`
(bounds, best-first scan, lazily verified windows — all inherited) plus a
*lens* on graphs that live on other frontiers.  A mutable index's base
needs the lens: its memtable's graphs live beside it.  A replica worker
serves its whole bundle through one with no stranger to see — a distinct
class, so ``benchmarks/e2e/trace.py`` books served work under ``shard``.
Every indexed graph is a row of the bundle's one
:class:`~repro.index.vantage.VantageFrame`, so a foreign graph's
coordinates are an array slice, and from there the inherited
:meth:`~repro.index.frontier.IndexFrontier.resolve` treats it like a
member — Chebyshev window over the uncovered members, free verdicts,
deficit-sized verification batches, resumable partial state — with the
coordinator's per-frontier deficit in the place of the round's
incumbent.

Id discipline: the index's own engine and embedding speak *local* ids;
the frame and every foreign distance (through the *global* engine) speak
global ids (see :mod:`repro.index.frontier`).
"""

from __future__ import annotations

import numpy as np

from repro.cascade import FilterCascade
from repro.core.results import QueryStats
from repro.index.frontier import FlatRoundSearch, IndexFrontier, MemberState
from repro.index.vantage import VantageFrame


class RoundSearch(FlatRoundSearch):
    # Distinct class only so benchmarks/e2e/trace.py can book shard scans
    # under "shard" without patching the plain-NBIndex scan.
    pass


class ShardFrontier(IndexFrontier):
    """A mutable base's (or a replica worker's bundle's) state for one
    (θ, k) query."""

    round_search = RoundSearch

    def __init__(
        self,
        state: MemberState,
        theta: float,
        stats: QueryStats,
        runtime: FilterCascade,
        *,
        global_engine,
        frame: VantageFrame,
    ):
        super().__init__(state, theta, stats, runtime)
        self.global_engine = global_engine
        self.frame = frame
        #: Frame rows this frontier was first to ask for (memtable graphs
        #: only: every indexed graph's row is stored) — coordinator
        #: accounting.
        self.foreign_embeds = 0

    def foreign_coords(self, gid: int) -> np.ndarray:
        """The frame row of a graph that lives elsewhere."""
        if gid not in self.frame:
            self.foreign_embeds += 1
        return self.frame.row(gid, self.global_engine)

    def _lens(self, gid: int):
        if gid in self.state.g2l:
            return super()._lens(gid)
        return (
            self.foreign_coords(gid), self.global_engine, gid,
            self.state.relevant_global,
        )

    def apply_update(self, *args) -> None:
        # Trace-only: benchmarks/e2e/trace.py wraps this name, so it must
        # resolve; no query calls it.
        pass
