"""Per-shard query frontier: a tree frontier that can see strangers.

A :class:`ShardFrontier` is a :class:`~repro.index.frontier.TreeFrontier`
(bounds, best-first walk, Theorem 6–8 update, lazily verified windows —
all inherited) over one shard's NB-Index, plus the one thing only a shard
needs: a *lens* on graphs that live on other frontiers.  Every shard of a
bundle is embedded in the bundle's one
:class:`~repro.index.vantage.VantageFrame`, so a foreign graph's
coordinates are a row of that frame — an array slice, no distances — and
from there the inherited :meth:`~repro.index.frontier.TreeFrontier.resolve`
treats it like a member — Chebyshev window over the uncovered members,
free verdicts, deficit-sized verification batches, resumable partial state
— with the coordinator's per-frontier deficit in the place of the round's
incumbent.

Id discipline: the shard's own engine and embedding speak *local* ids;
the frame and every foreign distance (through the *global* engine) speak
global ids (see :mod:`repro.index.frontier`).
"""

from __future__ import annotations

import numpy as np

from repro.cascade import FilterCascade
from repro.core.results import QueryStats
from repro.index.frontier import TreeFrontier, TreeRoundSearch, TreeState
from repro.index.vantage import VantageFrame


class RoundSearch(TreeRoundSearch):
    # Distinct class only so benchmarks/e2e/trace.py can book shard walks
    # under "shard" without patching the plain-NBIndex walk.
    pass


class ShardFrontier(TreeFrontier):
    """One shard's state for one coordinated (θ, k) query."""

    round_search = RoundSearch

    def __init__(
        self,
        state: TreeState,
        theta: float,
        ladder_index: int,
        stats: QueryStats,
        runtime: FilterCascade,
        *,
        global_engine,
        frame: VantageFrame,
    ):
        super().__init__(
            state, theta, ladder_index, stats, runtime,
            distances=global_engine.one_to_many,
        )
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
