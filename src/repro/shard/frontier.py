"""Per-shard query frontier: a tree frontier that can resolve strangers.

A :class:`ShardFrontier` is a :class:`~repro.index.frontier.TreeFrontier`
(bounds, best-first walk, Theorem 6–8 update, lazily verified home-path
neighborhoods — all inherited) over one shard's NB-Index, plus the one
thing only a shard needs: answering for graphs that live on *other*
frontiers.  A foreign
graph is embedded once against this shard's vantage points (``|V|``
distances through the global engine) and then filtered with the same
Chebyshev lower bound / min-sum upper bound sandwich the home path uses,
so only the undecided band pays exact distances.  π̂-style *counts* over
the uncovered relevant set (:meth:`ShardFrontier.pi_hat_uncovered`) give
the coordinator a cheap bound-refinement tier before it commits to full
resolution.

Id discipline: the shard's own engine and embedding speak *local* ids;
every foreign distance goes through the *global* engine with global ids
(see :mod:`repro.index.frontier`).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.cascade.stages import BLOCK_EVALS
from repro.core.results import QueryStats
from repro.index.frontier import TreeFrontier, TreeRoundSearch, TreeState

_EPS = 1e-9


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
            vantage_global = [
                self.state.global_ids[vp]
                for vp in self.index.embedding.vantage_indices
            ]
            coords = np.asarray(
                self.global_engine.one_to_many(int(gid), vantage_global),
                dtype=float,
            )
            self._foreign_coords[gid] = coords
        return coords

    def pi_hat_uncovered(self, gid: int) -> int:
        """Chebyshev count of *uncovered* relevant members within θ of
        ``gid`` — an upper bound on the gain contribution of this shard."""
        if not self.uncovered_count:
            return 0
        coords = self.foreign_coords(gid)
        among = self.state.relevant_local[self._uncovered]
        obs.counter(BLOCK_EVALS)
        lower = self.index.embedding.lower_bounds_to(coords, among)
        return int(np.count_nonzero(lower <= self.theta + _EPS))

    def _vantage_row(self, gid: int) -> np.ndarray:
        if gid in self.state.g2l:
            return super()._vantage_row(gid)
        return self.foreign_coords(gid)

    def neighborhood_of(self, gid: int) -> np.ndarray:
        """Home graphs take the inherited lazy path; a foreign graph's
        ``N_θ(gid) ∩ relevant(shard)`` is resolved whole, exact, cached."""
        gid = int(gid)
        if gid in self.state.g2l:
            return super().neighborhood_of(gid)
        cached = self._nbhd.get(gid)
        if cached is None:
            members = self._members_within(gid)
            cached = self._nbhd[gid] = self.universe.encode_ids(
                np.fromiter(members, dtype=np.int64, count=len(members))
            )
            self.stats.exact_neighborhoods += 1
        return cached

    def _members_within(self, gid: int) -> list[int]:
        """A foreign graph is sandwiched between the vantage bounds of its
        foreign coordinates and only the undecided band is verified — the
        same ``d ≤ θ + ε`` predicate as the home path."""
        state = self.state
        theta = self.theta
        stats = self.stats
        among = state.relevant_local
        coords = self.foreign_coords(gid)
        if not among.size:
            return []
        obs.counter(BLOCK_EVALS)
        embedding = self.index.embedding
        lower = embedding.lower_bounds_to(coords, among)
        window = among[lower <= self._gen_theta + _EPS]
        stats.candidates_generated += int(window.size)
        if not window.size:
            return []
        upper = embedding.upper_bounds_to(coords, window)
        undecided = window[upper > theta + _EPS]
        members = [
            state.global_ids[c] for c in window[upper <= theta + _EPS]
        ]
        stats.candidate_verifications += int(undecided.size)
        if undecided.size:
            targets = [state.global_ids[c] for c in undecided]
            if self.cascade is None:
                distances = self.global_engine.one_to_many(gid, targets)
                members.extend(
                    t for t, d in zip(targets, distances) if d <= theta + _EPS
                )
            else:
                # Structural stages prune the undecided band through the
                # global engine (the foreign graph has no row in this
                # shard's embedding, so the vantage stage cannot re-run —
                # `prefiltered`).
                ok_mask = self.global_engine.within(
                    gid, targets, theta, cascade=self.cascade,
                    prefiltered=True,
                )
                members.extend(t for t, ok in zip(targets, ok_mask) if ok)
        return members
