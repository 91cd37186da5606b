"""Per-shard query frontier: a tree frontier that can see strangers.

A :class:`ShardFrontier` is a :class:`~repro.index.frontier.TreeFrontier`
(bounds, best-first walk, Theorem 6–8 update, lazily verified windows —
all inherited) over one shard's NB-Index, plus the one thing only a shard
needs: a *lens* on graphs that live on other frontiers.  A foreign graph
is embedded once against this shard's vantage points (``|V|`` distances
through the global engine); from there the inherited
:meth:`~repro.index.frontier.TreeFrontier.resolve` treats it like a
member — Chebyshev window over the uncovered members, free verdicts,
deficit-sized verification batches, resumable partial state — with the
coordinator's per-frontier deficit in the place of the round's incumbent.

Id discipline: the shard's own engine and embedding speak *local* ids;
every foreign distance goes through the *global* engine with global ids
(see :mod:`repro.index.frontier`).
"""

from __future__ import annotations

import numpy as np

from repro.core.results import QueryStats
from repro.index.frontier import TreeFrontier, TreeRoundSearch, TreeState


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
        cascade=None,
        *,
        global_engine,
    ):
        super().__init__(
            state, theta, ladder_index, stats, cascade,
            distances=global_engine.one_to_many,
        )
        self.global_engine = global_engine
        self._foreign_coords: dict[int, np.ndarray] = {}

    @property
    def foreign_embeds(self) -> int:
        """How many foreign graphs were embedded against this shard's
        vantage points (coordinator accounting)."""
        return len(self._foreign_coords)

    def foreign_coords(self, gid: int) -> np.ndarray:
        """This shard's vantage coordinates of a foreign graph (cached)."""
        coords = self._foreign_coords.get(gid)
        if coords is None:
            coords = self._foreign_coords[gid] = np.asarray(
                self.global_engine.one_to_many(
                    int(gid), self.state.vantage_global
                ),
                dtype=float,
            )
        return coords

    def _vantage_row(self, gid: int) -> np.ndarray:
        if gid in self.state.g2l:
            return super()._vantage_row(gid)
        return self.foreign_coords(gid)

    def _lens(self, gid: int):
        if gid in self.state.g2l:
            return super()._lens(gid)
        return (
            self.foreign_coords(gid), self.global_engine, gid,
            self.state.relevant_global,
        )
