"""Bundle query frontier: an index frontier that can see memtable graphs.

A :class:`ShardFrontier` is an :class:`~repro.index.frontier.IndexFrontier`
(bounds, best-first scan, lazily verified windows — all inherited) plus a
*lens* on graphs past its index's stored rows.  A mutable index's base
needs the lens: its memtable's graphs live beside it.  A replica worker
serves its whole bundle through one with no such graph to see — a
distinct class, so ``benchmarks/e2e/trace.py`` books served work under
``shard``.  A memtable graph's row of the index's vantage frame is
measured once through the mutation layer's engine, and from there the
inherited :meth:`~repro.index.frontier.IndexFrontier.resolve` treats it
like a member — Chebyshev window over the uncovered members, free
verdicts, deficit-sized verification batches, resumable partial state —
with the coordinator's per-frontier deficit in the place of the round's
incumbent.
"""

from __future__ import annotations

import numpy as np

from repro.cascade import FilterCascade
from repro.core.results import QueryStats
from repro.index.frontier import FlatRoundSearch, IndexFrontier, MemberState


class RoundSearch(FlatRoundSearch):
    # Distinct class only so benchmarks/e2e/trace.py can book shard scans
    # under "shard" without patching the plain-NBIndex scan.
    pass


class ShardFrontier(IndexFrontier):
    """A mutable base's (or a replica worker's bundle's) state for one
    (θ, k) query; ``global_engine`` measures every graph past the index's
    stored rows."""

    round_search = RoundSearch

    def __init__(
        self,
        state: MemberState,
        theta: float,
        stats: QueryStats,
        runtime: FilterCascade,
        *,
        global_engine,
    ):
        super().__init__(state, theta, stats, runtime)
        self.global_engine = global_engine
        #: Frame rows this frontier was first to ask for (memtable graphs
        #: only: every indexed graph's row is stored) — coordinator
        #: accounting.
        self.foreign_embeds = 0

    def foreign_coords(self, gid: int) -> np.ndarray:
        """The frame row of a graph past the index's stored rows."""
        frame = self.index.embedding
        if gid not in frame:
            self.foreign_embeds += 1
        return frame.row(gid, self.global_engine)

    def _lens(self, gid: int):
        if gid < len(self.index.embedding):
            return super()._lens(gid)
        return self.foreign_coords(gid), self.global_engine

    def apply_update(self, *args) -> None:
        # Trace-only: benchmarks/e2e/trace.py wraps this name, so it must
        # resolve; no query calls it.
        pass
