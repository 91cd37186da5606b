"""The query path's frontier protocol and its NB-Tree implementation.

Every deployment answers a top-k query the same way
(``docs/internals.md``, "The query path"):

    session  →  index hook  →  frontiers  →  one greedy loop

A :class:`~repro.index.nbindex.QuerySession` owns the relevant set and the
(θ, k) prologue/epilogue; the index's ``_run_query`` hook opens one
:class:`Frontier` per participant; :func:`repro.index.coordinator.run_greedy`
drives them.  A frontier speaks *global* graph ids and packed bitsets over
the session's :class:`~repro.bitset.BitsetUniverse`, and answers three
needs: **candidates** in bound order (:meth:`Frontier.open_round`),
**resolution** of any graph's θ-neighborhood within its own relevant
members (:meth:`Frontier.neighborhood_of`, with
:meth:`Frontier.pi_hat_uncovered` as the cheap count-only tier), and
**updates** after a selection anywhere (:meth:`Frontier.apply_update`).

Three implementations: :class:`TreeFrontier` here (an NB-Tree; a plain
``NBIndex`` is one of these over the identity id map, and
:class:`~repro.shard.frontier.ShardFrontier` adds what only a shard needs
— resolving graphs that live elsewhere),
:class:`~repro.delta.frontier.ExactFrontier` (the un-indexed memtable,
scanned exactly) and :class:`~repro.replica.remote.RemoteFrontier` (a
replicated shard behind the wire).

The tree frontier is the paper's Section 7 search-and-update: each node
carries a working upper bound ``W``; during the walk a child's effective
bound is ``min(W[child], effective(parent))``, so decrementing a cluster's
root bound tightens every descendant without touching them — an O(1)
batch update per cluster.  Submodularity makes stale bounds safe: true
marginal gains only shrink as the answer grows.

Id discipline (load-bearing): the tree's own engine and embedding speak
*local* ids (a shard's sub-database renumbers 0..n_s−1); everything that
crosses a tree boundary uses *global* ids.  Mixing the two in one engine
would alias different graphs onto the same pair-cache key.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Protocol

import numpy as np

from repro.bitset import BitsetDelta, BitsetUniverse, kernel as bitset_kernel
from repro.core.results import QueryStats
from repro.index.nbtree import NBTreeNode

_EPS = 1e-9
_NEG_INF = float("-inf")
#: Tie-break sentinel for subtrees with no relevant members; larger than
#: any real graph id, so it loses every tie-break.
_NO_GID = 2**63 - 1


class RoundCursor(Protocol):
    """One frontier's candidate stream for one greedy round."""

    def peek(self) -> float:
        """Upper bound on any local gain still obtainable this round."""

    def next(
        self, min_useful: float, tie_gid: int | None
    ) -> tuple[int, float, np.ndarray] | None:
        """The next candidate whose local gain is above ``min_useful`` (or
        equal with a global id below ``tie_gid``) as ``(gid, exact local
        gain, local neighborhood bitset)``; ``None`` — final for the
        round — when no such candidate remains."""


class Frontier(Protocol):
    """One participant of the coordinated greedy, for one (θ, k) query."""

    #: This frontier's relevant members (global ids, ascending).
    relevant_global: np.ndarray
    #: How many of them are uncovered, as of the last ``begin_round``.
    uncovered_count: int
    #: Foreign graphs embedded against this frontier's vantage points.
    foreign_embeds: int

    def begin_round(self, covered: np.ndarray) -> None: ...

    def root_bound(self) -> float:
        """Upper bound on any member's local gain (``-inf`` when none)."""

    def min_gid_bound(self) -> int:
        """A lower bound on every member's global id (tie-break pruning)."""

    def open_round(self, covered: np.ndarray) -> RoundCursor: ...

    def select(self, gid: int) -> None:
        """Retire a chosen member."""

    def pi_hat_uncovered(self, gid: int) -> int:
        """Upper bound on a *foreign* graph's gain among the members."""

    def neighborhood_of(self, gid: int) -> np.ndarray:
        """``N_θ(gid) ∩ members`` as a packed bitset, exact."""

    def apply_update(
        self, selected: int, newly: BitsetDelta, covered: np.ndarray
    ) -> None:
        """Tighten bounds after ``selected`` covered the ``newly`` delta."""


class TreeState:
    """θ-independent state of one NB-Tree for one relevance function.

    Id maps, the tree's relevant members, per-node relevant bitmaps (the
    store behind the Theorem 7 batch decrement and the (gain, min-id)
    tie-break keys) and, per ladder rung, the π̂ column with the initial
    bounds it implies.  A session builds it once per tree — lazily, inside
    its first ``query()`` — and every (θ, k) refinement opens a fresh
    :class:`TreeFrontier` over it.
    """

    def __init__(
        self,
        index,
        global_ids: np.ndarray,
        relevant_global: np.ndarray,
        universe: BitsetUniverse,
    ):
        self.index = index
        #: local id → global id, as plain ints (scalar lookups dominate).
        self.global_ids = [int(g) for g in global_ids]
        self.universe = universe
        self.g2l = {g: i for i, g in enumerate(self.global_ids)}

        # Relevant graphs of this tree, aligned local/global, ascending.
        rel = [
            g for g in np.asarray(relevant_global).tolist() if g in self.g2l
        ]
        self.relevant_global = np.asarray(rel, dtype=np.int64)
        self.relevant_local = np.asarray(
            [self.g2l[g] for g in rel], dtype=np.int64
        )
        self._rank = {g: p for p, g in enumerate(rel)}
        #: Bit positions (in the universe) of the relevant members,
        #: aligned with ``relevant_local``, and the same as one bitset.
        self.rel_positions = universe.positions_of(self.relevant_global)
        self.member_bits = universe.encode_positions(self.rel_positions)

        num_nodes = index.tree.num_nodes
        self.node_bits = universe.empty_matrix(num_nodes)
        self.node_min_gid = np.full(num_nodes, _NO_GID, dtype=np.int64)
        self._collect_relevant(index.tree.root)
        self.node_has = bitset_kernel.popcount_rows(self.node_bits) > 0
        self._pi_hat_columns: dict[int | None, np.ndarray] = {}
        self._initial_bounds: dict[int | None, np.ndarray] = {}

    def _collect_relevant(self, node: NBTreeNode) -> None:
        row = self.node_bits[node.node_id]
        if node.is_leaf:
            gid = self.global_ids[node.graph_index]
            if gid in self._rank:
                bitset_kernel.set_bit(row, self.universe.position(gid))
        else:
            for child in node.children:
                self._collect_relevant(child)
                bitset_kernel.union_into(row, self.node_bits[child.node_id])
        self.node_min_gid[node.node_id] = self.universe.min_id(row, _NO_GID)

    def relevant_in(self, node: NBTreeNode) -> frozenset[int]:
        """Relevant graphs (global ids) in the subtree of ``node``."""
        return self.universe.decode_frozenset(self.node_bits[node.node_id])

    def pi_hat_column(self, ladder_index: int | None) -> np.ndarray:
        """π̂ counts (|N̂| among the tree's relevant members) at one indexed
        threshold, aligned with ``relevant_local``; the trivial bound — the
        member count — when ``ladder_index`` is ``None``."""
        column = self._pi_hat_columns.get(ladder_index)
        if column is None:
            members = self.relevant_local
            if ladder_index is None:
                column = np.full(members.size, members.size)
            elif members.size:
                column = self.index.embedding.candidate_counts(
                    members, [self.index.ladder[ladder_index]], members
                )[:, 0]
            else:
                column = np.empty(0, dtype=np.int64)
            self._pi_hat_columns[ladder_index] = column
        return column

    def initial_bounds(self, ladder_index: int | None) -> np.ndarray:
        """Fresh per-node working bounds W: π̂ at leaves, child ceilings
        above (Eq. 14).  A function of the rung alone, so the tree walk
        that fills it runs once per rung; callers get their own copy."""
        cached = self._initial_bounds.get(ladder_index)
        if cached is not None:
            return cached.copy()
        column = self.pi_hat_column(ladder_index)
        bounds = np.full(self.index.tree.num_nodes, _NEG_INF)

        def fill(node: NBTreeNode) -> float:
            if node.is_leaf:
                rank = self._rank.get(self.global_ids[node.graph_index])
                value = float(column[rank]) if rank is not None else _NEG_INF
            else:
                value = max(
                    (fill(child) for child in node.children), default=_NEG_INF
                )
            bounds[node.node_id] = value
            return value

        fill(self.index.tree.root)
        self._initial_bounds[ladder_index] = bounds
        return bounds.copy()


class TreeRoundSearch:
    """One tree's lazy best-first walk for one greedy round (Algorithm 2).

    The coordinator pulls candidates with :meth:`next`; between pulls it
    reads :meth:`peek` to re-rank the frontier against the others.  The
    walk shares the frontier's persistent bound array, so work done in one
    round keeps paying off in later rounds (and pulls that resolve leaves
    leave exact gains behind for the update step to refresh)."""

    def __init__(self, frontier: TreeFrontier, covered: np.ndarray):
        self.frontier = frontier
        self.covered = covered
        self._counter = itertools.count()
        self._heap: list[tuple[float, int, float, NBTreeNode]] = []
        root = frontier.index.tree.root
        root_bound = float(frontier.bounds[root.node_id])
        if root_bound != _NEG_INF:
            self._heap.append((-root_bound, next(self._counter), root_bound, root))

    def peek(self) -> float:
        return self._heap[0][2] if self._heap else _NEG_INF

    def next(
        self, min_useful: float, tie_gid: int | None
    ) -> tuple[int, float, np.ndarray] | None:
        frontier = self.frontier
        state = frontier.state
        bounds = frontier.bounds
        min_gid = state.node_min_gid
        heap = self._heap
        stats = frontier.stats
        while heap:
            # Heap entries are ordered by their bound at push time, a valid
            # upper bound on every gain in the subtree.
            _, _, pushed_bound, node = heapq.heappop(heap)
            stats.nodes_popped += 1
            if pushed_bound < min_useful:
                # Everything left is no better (lines 6-7 of Algorithm 2);
                # park the entry so peek() stays honest for the ranking.
                heapq.heappush(
                    heap,
                    (-pushed_bound, next(self._counter), pushed_bound, node),
                )
                return None
            # A subtree that could only *tie* still matters when it holds
            # a smaller graph id — the canonical selection rule is (max
            # gain, min id), which makes the answer independent of tree
            # shape and partitioning.
            if (
                tie_gid is not None
                and pushed_bound == min_useful
                and min_gid[node.node_id] > tie_gid
            ):
                continue
            # The node's own bound may have been tightened by an update
            # since it was pushed; a stale entry is skipped, not terminal.
            current = min(pushed_bound, float(bounds[node.node_id]))
            if current < min_useful or (
                tie_gid is not None
                and current == min_useful
                and min_gid[node.node_id] > tie_gid
            ):
                continue
            if node.is_leaf:
                if bounds[node.node_id] == _NEG_INF:
                    continue
                gid = state.global_ids[node.graph_index]
                neighborhood = frontier.neighborhood_of(gid)
                gain = float(
                    bitset_kernel.uncovered_count(neighborhood, self.covered)
                )
                bounds[node.node_id] = gain
                stats.leaves_evaluated += 1
                return gid, gain, neighborhood
            for child in node.children:
                if not state.node_has[child.node_id]:
                    continue
                child_bound = min(float(bounds[child.node_id]), current)
                if child_bound == _NEG_INF:
                    continue
                if child_bound > min_useful or (
                    child_bound == min_useful
                    and (tie_gid is None or min_gid[child.node_id] < tie_gid)
                ):
                    heapq.heappush(
                        heap,
                        (-child_bound, next(self._counter), child_bound, child),
                    )
        return None


class TreeFrontier:
    """One NB-Tree's state for one (θ, k) query — the home path.

    ``distance(a, b)`` evaluates one pair of *global* ids (the update
    walk's centroid distances, where the selected graph may live in
    another tree).  Complete on its own when every graph the query can
    select is a member — a plain ``NBIndex``; a shard resolves foreign
    graphs through :class:`~repro.shard.frontier.ShardFrontier`.
    """

    def __init__(
        self,
        state: TreeState,
        theta: float,
        ladder_index: int,
        stats: QueryStats,
        cascade=None,
        *,
        distance,
    ):
        self.state = state
        self.index = state.index
        self.universe = state.universe
        self.relevant_global = state.relevant_global
        self.theta = float(theta)
        self.stats = stats
        #: Shared per-query :class:`~repro.cascade.FilterCascade` (None →
        #: the engine's vantage-only default at ε = 0).
        self.cascade = cascade
        # ε > 0 shrinks the generation window to (1−ε)θ: members beyond it
        # may be dropped (N_{(1−ε)θ} ⊆ N' ⊆ N_θ), never wrongly added.
        self._gen_theta = (
            self.theta if cascade is None else cascade.generation_theta(theta)
        )
        self._distance = distance
        self.bounds = state.initial_bounds(ladder_index)
        #: Exact θ-neighborhoods within this tree's relevant members, as
        #: packed bitsets keyed by global id.
        self._nbhd: dict[int, np.ndarray] = {}
        self.uncovered_count = int(self.relevant_global.size)

    #: Nothing is foreign to a frontier that holds every candidate.
    foreign_embeds = 0
    #: The cursor :meth:`open_round` opens.
    round_search = TreeRoundSearch

    # ------------------------------------------------------------------
    # Round lifecycle
    # ------------------------------------------------------------------
    def begin_round(self, covered: np.ndarray) -> None:
        """Refresh the uncovered-member count: one
        ``popcount(members & ~covered)``."""
        self.uncovered_count = (
            bitset_kernel.uncovered_count(self.state.member_bits, covered)
            if self.relevant_global.size else 0
        )

    def root_bound(self) -> float:
        return float(self.bounds[self.index.tree.root.node_id])

    def min_gid_bound(self) -> int:
        return int(self.state.node_min_gid[self.index.tree.root.node_id])

    def open_round(self, covered: np.ndarray) -> "TreeRoundSearch":
        return self.round_search(self, covered)

    def select(self, gid: int) -> None:
        """Mark a home graph as chosen: its leaf leaves the frontier."""
        local = self.state.g2l[int(gid)]
        self.bounds[self.index._leaf_of[local].node_id] = _NEG_INF

    # ------------------------------------------------------------------
    # Neighborhood resolution
    # ------------------------------------------------------------------
    def neighborhood_of(self, gid: int) -> np.ndarray:
        """``N_θ(gid) ∩ relevant(tree)`` as a packed bitset, exact, cached.

        Membership is always ``d(gid, c) ≤ θ + ε`` with the global ε, so
        the union over frontiers equals the single-index neighborhood."""
        cached = self._nbhd.get(gid)
        if cached is not None:
            return cached
        gid = int(gid)
        members = self._members_within(gid)
        result = self.universe.encode_ids(
            np.fromiter(members, dtype=np.int64, count=len(members))
        )
        self._nbhd[gid] = result
        self.stats.exact_neighborhoods += 1
        return result

    def _members_within(self, gid: int) -> list[int]:
        """Home path: vantage candidates verified by edit distance."""
        index = self.index
        state = self.state
        stats = self.stats
        local = state.g2l[gid]
        candidates = index.embedding.candidates(
            local, self._gen_theta + _EPS, state.relevant_local
        )
        stats.candidates_generated += int(candidates.size)
        others = [int(c) for c in candidates if int(c) != local]
        verified = [local] if len(others) < candidates.size else []
        stats.candidate_verifications += len(others)
        if index.engine is not None:
            # The candidate window above already applied the vantage lower
            # bound at this threshold — `prefiltered` skips re-running it.
            mask = index.engine.within(
                local, others, self.theta, cascade=self.cascade,
                prefiltered=True,
            )
            verified.extend(c for c, ok in zip(others, mask) if ok)
        else:
            graph = index.database[local]
            verified.extend(
                c for c in others
                if index.distance(graph, index.database[c])
                <= self.theta + _EPS
            )
        return [state.global_ids[c] for c in verified]

    # ------------------------------------------------------------------
    # Update (Theorems 6–8)
    # ------------------------------------------------------------------
    def apply_update(
        self, selected: int, newly: BitsetDelta, covered: np.ndarray
    ) -> None:
        """Batch-tighten bounds after ``selected`` (a member of any
        frontier) was added and the ``newly`` delta became covered.

        One centroid distance per visited node; subtrees provably outside
        the ``2θ`` influence ball are skipped (Theorem 6); clusters fully
        inside the new neighborhood with diameter ≤ θ get a single
        decrement (Theorem 7), with the recursion realizing Theorem 8 for
        partially overlapping parents.  Leaves with a cached exact
        neighborhood are refreshed to their exact residual gain.
        """
        self._update(self.index.tree.root, int(selected), newly, covered)

    def _update(
        self,
        node: NBTreeNode,
        selected: int,
        newly: BitsetDelta,
        covered: np.ndarray,
    ) -> None:
        bounds = self.bounds
        if bounds[node.node_id] == _NEG_INF:
            return
        state = self.state
        theta = self.theta
        centroid_distance = float(
            self._distance(selected, state.global_ids[node.centroid])
        )
        if centroid_distance - node.radius > 2.0 * theta + _EPS:
            self.stats.pruned_subtrees += 1
            return  # Theorem 6: no member's neighborhood changed.
        if node.is_leaf:
            gid = state.global_ids[node.graph_index]
            cached = self._nbhd.get(gid)
            if cached is not None:
                # Residual within this tree only — still an upper-bound
                # component; the coordinator adds foreign parts on top.
                bounds[node.node_id] = float(
                    bitset_kernel.uncovered_count(cached, covered)
                )
            elif centroid_distance <= theta + _EPS and (
                (position := self.universe.position(gid)) is not None
                and newly.test(position)
            ):
                # The leaf itself is newly covered: its own neighborhood
                # contains it, so its gain shrinks by at least one.
                bounds[node.node_id] = max(0.0, bounds[node.node_id] - 1.0)
            return
        if (
            node.diameter <= theta + _EPS
            and centroid_distance + node.radius <= theta + _EPS
        ):
            # Theorem 7 (exact-coverage form): the cluster is inside
            # N(selected) and every member's neighborhood contains the
            # cluster, so each loses the newly covered relevant members.
            decrement = newly.intersection_count(state.node_bits[node.node_id])
            if decrement:
                self.stats.batch_decrements += 1
                bounds[node.node_id] = max(
                    0.0, bounds[node.node_id] - float(decrement)
                )
            return
        for child in node.children:
            self._update(child, selected, newly, covered)
