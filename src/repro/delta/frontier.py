"""The delta-shard frontier: un-indexed graphs, scanned exactly.

Memtable graphs have no stored vantage coordinates and no π̂ columns —
they were inserted after the last compaction.  Instead of approximating,
the :class:`ExactFrontier` computes its members' θ-neighborhoods (within
the delta's own relevant set) *exactly* at session start: one batched
``within`` scan per member through the live global engine.  That is the
LSM trade the memtable makes — O(m²) distances over a structure kept
small by background compaction buys bounds that are not bounds at all
but exact gains, so the coordinator's threshold-algorithm pull treats
the delta like a shard whose bounds are always tight.

The frontier speaks the same protocol as
:class:`~repro.shard.frontier.ShardFrontier` over the base beside it (see
:func:`repro.index.coordinator.run_greedy`), so the coordinator needs no
special case: the canonical (max gain, min id) rule merges indexed and
un-indexed candidates bit-identically to a from-scratch build over the
mutated database.

Everything here goes through the mutation layer's engine over the live
database: delta graphs exist only there, past every stored frame row.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.bitset import BitsetUniverse, kernel as bitset_kernel
from repro.cascade import FilterCascade

_NEG_INF = float("-inf")
#: Tie-break sentinel for an empty delta (loses to any real graph id).
_NO_GID = 2**63 - 1


class ExactFrontier:
    """The memtable's state for one coordinated (θ, k) query."""

    def __init__(
        self,
        relevant_global: np.ndarray,
        universe: BitsetUniverse,
        global_engine,
        theta: float,
        stats,
        runtime: FilterCascade,
    ):
        self.relevant_global = np.asarray(relevant_global, dtype=np.int64)
        self.universe = universe
        self.global_engine = global_engine
        self.theta = float(theta)
        self.stats = stats
        #: The query's filter runtime, shared by all of its frontiers.
        self.runtime = runtime
        self.member_set = frozenset(int(g) for g in self.relevant_global)
        self._position = {
            int(g): p for p, g in enumerate(self.relevant_global)
        }
        self._rel_positions = universe.positions_of(self.relevant_global)
        self.member_bits = universe.encode_positions(self._rel_positions)

        # Exact θ-neighborhoods among delta members: one row per member,
        # packed over the global universe.  This is the "scanned exactly"
        # part — no bounds, just distances.
        m = self.relevant_global.size
        self._rows = universe.empty_matrix(m)
        members = [int(g) for g in self.relevant_global]
        for p, gid in enumerate(members):
            mask = global_engine.within(
                gid, members, self.theta, runtime=runtime
            )
            stats.candidates_generated += m
            stats.candidate_verifications += m
            hits = [members[j] for j in np.flatnonzero(mask)]
            self._rows[p] = universe.encode_ids(
                np.asarray(hits, dtype=np.int64)
            )
            stats.exact_neighborhoods += 1

        self.bounds = bitset_kernel.popcount_rows(self._rows).astype(float)
        self._selected = np.zeros(m, dtype=bool)
        #: Exact neighborhoods of *foreign* (indexed) graphs within the
        #: delta's relevant set, keyed by global id.
        self._nbhd: dict[int, np.ndarray] = {}
        self._covered: np.ndarray | None = None
        self.uncovered_count = int(m)

    # ------------------------------------------------------------------
    # Round lifecycle
    # ------------------------------------------------------------------
    def begin_round(self, covered: np.ndarray) -> None:
        """Refresh the exact per-member gains for one greedy round.

        Unlike a shard's lazily tightened bounds, the delta's bounds
        are recomputed exactly every round: one batch popcount over the
        member rows."""
        self._covered = covered
        if not self.relevant_global.size:
            self.uncovered_count = 0
            return
        self.uncovered_count = bitset_kernel.uncovered_count(
            self.member_bits, covered
        )
        self.bounds = bitset_kernel.uncovered_counts(
            self._rows, covered
        ).astype(float)
        self.bounds[self._selected] = _NEG_INF

    def root_bound(self) -> float:
        if not self.bounds.size:
            return _NEG_INF
        return float(self.bounds.max())

    def min_gid_bound(self) -> int:
        if not self.relevant_global.size:
            return _NO_GID
        return int(self.relevant_global[0])

    @property
    def foreign_embeds(self) -> int:
        return 0  # no vantage points to embed against

    def open_round(self, covered: np.ndarray) -> "ExactRoundSearch":
        return ExactRoundSearch(self)

    def select(self, gid: int) -> None:
        position = self._position[int(gid)]
        self._selected[position] = True
        self.bounds[position] = _NEG_INF

    # ------------------------------------------------------------------
    # Neighborhood resolution (home and foreign graphs)
    # ------------------------------------------------------------------
    def pi_hat_uncovered(self, gid: int) -> int:
        """Upper bound on a foreign graph's gain inside the delta.

        With no embedding there is no Chebyshev refinement; an already
        resolved neighborhood gives the exact residual, otherwise the
        uncovered member count is the (trivially valid) bound."""
        if not self.uncovered_count:
            return 0
        cached = self._nbhd.get(int(gid))
        if cached is not None and self._covered is not None:
            return int(bitset_kernel.uncovered_count(cached, self._covered))
        return int(self.uncovered_count)

    def neighborhood_of(
        self, gid: int, min_useful: float = _NEG_INF, tie_gid: int | None = None
    ) -> np.ndarray:
        """``N_θ(gid) ∩ relevant(delta)`` as a packed global bitset, exact,
        cached.  Same ``d ≤ θ + SLACK`` predicate as every other frontier.
        The memtable is tiny: it is scanned whole whatever the deficit."""
        gid = int(gid)
        position = self._position.get(gid)
        if position is not None:
            return self._rows[position]
        cached = self._nbhd.get(gid)
        if cached is not None:
            return cached
        members = [int(g) for g in self.relevant_global]
        if members:
            mask = self.global_engine.within(
                gid, members, self.theta, runtime=self.runtime
            )
            hits = [members[j] for j in np.flatnonzero(mask)]
            self.stats.candidates_generated += len(members)
            self.stats.candidate_verifications += len(members)
        else:
            hits = []
        result = self.universe.encode_ids(np.asarray(hits, dtype=np.int64))
        self._nbhd[gid] = result
        self.stats.exact_neighborhoods += 1
        return result

    # ------------------------------------------------------------------
    def apply_update(self, *args) -> None:
        # Trace-only: benchmarks/e2e/trace.py wraps this name, so it must
        # resolve; no query calls it.
        pass

    def __repr__(self) -> str:
        return (
            f"<ExactFrontier members={self.relevant_global.size} "
            f"theta={self.theta}>"
        )


class ExactRoundSearch:
    """The delta's candidate cursor for one greedy round.

    The frontier's bounds are exact gains as of the round's start, so
    there is no walk to advance — just a heap ordered by
    (gain desc, gid asc), matching the canonical selection rule."""

    def __init__(self, frontier: ExactFrontier):
        self.frontier = frontier
        self._heap: list[tuple[float, int, int]] = [
            (-float(bound), int(gid), int(pos))
            for pos, (gid, bound) in enumerate(
                zip(frontier.relevant_global, frontier.bounds)
            )
            if bound != _NEG_INF
        ]
        heapq.heapify(self._heap)

    def peek(self) -> float:
        return -self._heap[0][0] if self._heap else _NEG_INF

    def next(
        self, min_useful: float, tie_gid: int | None
    ) -> tuple[int, float, np.ndarray] | None:
        heap = self._heap
        frontier = self.frontier
        while heap:
            neg_gain, gid, position = heap[0]
            gain = -neg_gain
            if gain < min_useful:
                return None  # heap max can't matter; keep peek() honest
            heapq.heappop(heap)
            if (
                tie_gid is not None
                and gain == min_useful
                and gid > tie_gid
            ):
                continue  # can tie but never win the id tie-break
            frontier.stats.leaves_evaluated += 1
            return gid, gain, frontier._rows[position]
        return None
