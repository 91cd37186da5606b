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
members — only as far as the coordinator's deficit asks
(:meth:`Frontier.neighborhood_of`, with :meth:`Frontier.pi_hat_uncovered`
as the tier that pays no verification) — and **updates** after a
selection anywhere (:meth:`Frontier.apply_update`).

Neighborhoods are *residual*: coverage only grows within a query, so the
members already covered when a neighborhood is resolved can never count
towards a later gain, and a frontier may leave them out.

Three implementations: :class:`TreeFrontier` here (an NB-Tree; a plain
``NBIndex`` is one of these over the identity id map, and
:class:`~repro.shard.frontier.ShardFrontier` adds what only a shard needs
— seeing graphs that live elsewhere through the bundle's vantage frame),
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
import math
from typing import Protocol

import numpy as np

from repro import obs
from repro.bitset import BitsetDelta, BitsetUniverse, kernel as bitset_kernel
from repro.cascade import BLOCK_EVALS, FilterCascade
from repro.core.results import QueryStats
from repro.ged.metric import SLACK
from repro.index.nbtree import NBTreeNode

_NEG_INF = float("-inf")
#: A verification batch smaller than this costs more in dispatch (engine,
#: cascade and kernel set-up ≈ the price of 3–4 star distances) than the
#: verdicts it could save.
_MIN_VERIFY_BATCH = 4
#: Update-walk verdicts for one node (:meth:`TreeFrontier._verdict`).
_PRUNE, _REFRESH, _DECREMENT, _KEEP, _BATCH, _DESCEND = range(6)
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
        gain, local residual neighborhood bitset)``; ``None`` — final for
        the round — when no such candidate remains."""


class Frontier(Protocol):
    """One participant of the coordinated greedy, for one (θ, k) query."""

    #: This frontier's relevant members (global ids, ascending).
    relevant_global: np.ndarray
    #: How many of them are uncovered, as of the last ``begin_round``.
    uncovered_count: int
    #: Vantage-frame rows this frontier had computed on demand.
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
        """The tightest upper bound on a *foreign* graph's residual gain
        among the members that costs no verification."""

    def neighborhood_of(
        self, gid: int, min_useful: float = _NEG_INF, tie_gid: int | None = None
    ) -> np.ndarray | int:
        """``N_θ(gid) ∩ members`` as a packed bitset, exact over every
        member uncovered as of the last ``begin_round`` — or, as soon as
        the frontier can prove the residual count neither exceeds
        ``min_useful`` nor equals it with ``gid < tie_gid``, the upper
        bound (an ``int``) that proves it."""

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
        # The update walk only ever visits nodes with relevant members:
        # their slots in, and the vantage rows of their centroids for, the
        # per-selection sandwich (two array ops over these rows).
        walked = np.flatnonzero(self.node_has)
        self.walk_slot = np.full(num_nodes, -1, dtype=np.int64)
        self.walk_slot[walked] = np.arange(walked.size)
        centroid_of = np.empty(num_nodes, dtype=np.int64)
        for node in index.tree.nodes:
            centroid_of[node.node_id] = node.centroid
        self.walk_centroid_coords = index.embedding.coords[centroid_of[walked]]
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
    round keeps paying off in later rounds: a resolved leaf leaves its
    exact gain behind for the update step to refresh, a leaf that was
    proven unable to win leaves its partial verification
    (:meth:`TreeFrontier.resolve`)."""

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
                neighborhood = frontier.resolve(gid, min_useful, tie_gid)
                if neighborhood is None:
                    continue  # proven unable to win; its bound says so now
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
    """One NB-Tree's state for one (θ, k) query.

    ``distances(a, bs)`` evaluates one batch of *global* id pairs (the
    update walk's centroid distances, where the selected graph may live in
    another tree).  Complete on its own when every graph the query can
    select is a member — a plain ``NBIndex``; a shard sees graphs that
    live elsewhere through :class:`~repro.shard.frontier.ShardFrontier`.

    The bound on a graph's residual gain among this tree's members
    descends a ladder, each rung paid for only when a round needs it: the
    indexed π̂ count (a member) or the uncovered-member count (a stranger)
    → the Chebyshev window over the members still uncovered → ``hits +
    unverified`` of a partially verified window → the exact gain
    (:meth:`resolve`).
    """

    def __init__(
        self,
        state: TreeState,
        theta: float,
        ladder_index: int,
        stats: QueryStats,
        runtime: FilterCascade,
        *,
        distances,
    ):
        self.state = state
        self.index = state.index
        self.universe = state.universe
        self.relevant_global = state.relevant_global
        self.theta = float(theta)
        self.stats = stats
        #: The query's filter runtime, shared by all of its frontiers.
        self.runtime = runtime
        # ε > 0 shrinks the generation window to (1−ε)θ: members beyond it
        # may be dropped (N_{(1−ε)θ} ⊆ N' ⊆ N_θ), never wrongly added.
        self._gen_theta = runtime.generation_theta(self.theta)
        self._distances = distances
        self.bounds = state.initial_bounds(ladder_index)
        #: Resolved residual θ-neighborhoods within this tree's relevant
        #: members, as packed bitsets keyed by global id.
        self._nbhd: dict[int, np.ndarray] = {}
        #: Graphs verified only far enough to prove they could not win a
        #: round: ``gid → (hits, unverified)`` as ranks into the state's
        #: relevant members, ``unverified`` in verification order.
        self._partial: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.uncovered_count = int(self.relevant_global.size)
        self._uncovered = np.ones(self.relevant_global.size, dtype=bool)
        self._covered = self.universe.empty()

    #: Nothing is foreign to a frontier that holds every candidate.
    foreign_embeds = 0
    #: The cursor :meth:`open_round` opens.
    round_search = TreeRoundSearch

    # ------------------------------------------------------------------
    # Round lifecycle
    # ------------------------------------------------------------------
    def begin_round(self, covered: np.ndarray) -> None:
        """Refresh the uncovered-member count (one ``popcount(members &
        ~covered)``) and the per-member uncovered mask (one vectorized bit
        gather) that windows and π̂ counts are restricted to."""
        self._covered = covered
        if not self.relevant_global.size:
            self.uncovered_count = 0
            return
        self.uncovered_count = bitset_kernel.uncovered_count(
            self.state.member_bits, covered
        )
        self._uncovered = ~bitset_kernel.test_positions(
            covered, self.state.rel_positions
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
    def pi_hat_uncovered(self, gid: int) -> int:
        """What :meth:`resolve` knows about ``gid`` without verifying
        anything more: the exact residual count of a resolved
        neighborhood, else ``hits + unverified`` of its window — opened
        here on first sight, re-filtered by coverage on every later one."""
        gid = int(gid)
        cached = self._nbhd.get(gid)
        if cached is not None:
            return int(bitset_kernel.uncovered_count(cached, self._covered))
        hits, unverified = self._window(gid)
        self._park(gid, hits, unverified)
        return int(hits.size + unverified.size)

    def neighborhood_of(
        self, gid: int, min_useful: float = _NEG_INF, tie_gid: int | None = None
    ) -> np.ndarray | int:
        """:meth:`resolve`, with the proving bound in place of ``None``."""
        gid = int(gid)
        resolved = self.resolve(gid, min_useful, tie_gid)
        if resolved is None:
            return sum(int(ranks.size) for ranks in self._partial[gid])
        return resolved

    def resolve(
        self, gid: int, min_useful: float, tie_gid: int | None
    ) -> np.ndarray | None:
        """Verify a graph's window only as far as the round needs.

        Returns the graph's residual neighborhood — ``N_θ(gid)`` within the
        members uncovered as of this round, packed, cached — once every
        window member has a verdict.  Returns ``None`` as soon as ``hits +
        unverified`` shows the count cannot beat ``min_useful`` (or tie it
        with an id below ``tie_gid``): that count stays behind as the
        working bound (of the leaf, for a home graph) and ``(hits,
        unverified)`` as the partial state, picked up — minus whatever got
        covered meanwhile — on the next visit.

        ``gid`` may live elsewhere: the window is then taken from its row
        of the bundle's frame and verified through the global engine
        (:meth:`_lens`); ``min_useful`` is what the coordinator still needs
        from this frontier.

        Membership is always ``d(gid, c) ≤ θ + ε`` with the global ε, so
        the union over frontiers equals the single-index neighborhood.
        """
        cached = self._nbhd.get(gid)
        if cached is not None:
            return cached
        state = self.state
        stats = self.stats
        hits, unverified = self._window(gid)
        wins_ties = tie_gid is None or gid < tie_gid
        while unverified.size:
            # The deficit: the fewest misses after which the graph is out
            # of the round.  No smaller batch of verdicts can end the
            # visit, so that is what gets verified next, likeliest misses
            # first.  (Gains are ≥ 0: any negative `min_useful` — −inf
            # without an incumbent — asks for the whole window.)
            slack = hits.size + unverified.size - max(min_useful, -1.0)
            needed = math.floor(slack) + 1 if wins_ties else math.ceil(slack)
            if needed <= 0:
                self._park(gid, hits, unverified)
                return None
            take = max(needed, _MIN_VERIFY_BATCH)
            chunk, unverified = unverified[:take], unverified[take:]
            stats.candidate_verifications += int(chunk.size)
            hits = np.concatenate([hits, chunk[self._within(gid, chunk)]])
        result = self.universe.encode_positions(state.rel_positions[hits])
        self._nbhd[gid] = result
        stats.exact_neighborhoods += 1
        return result

    def _lens(self, gid: int):
        """How this frontier measures against ``gid``: ``(vantage row,
        engine, gid's id and the members' ids in that engine's id space)``
        — the tree's own engine and local ids for a member."""
        local = self.state.g2l[gid]
        return (
            self.index.embedding.coords[local], self.index.engine, local,
            self.state.relevant_local,
        )

    def _window(self, gid: int) -> tuple[np.ndarray, np.ndarray]:
        """``(hits, unverified)`` ranks of ``gid`` as of this round.

        A parked window is taken back minus the members covered meanwhile
        (those among ``unverified`` stay booked as skipped for good).  On
        first sight the Chebyshev window over the uncovered members is
        split by what is free to decide — the graph itself, vantage
        upper-bound accepts and pairs the engine has already evaluated —
        with ``unverified`` by descending lower bound.  A free verdict is
        only taken where the filter would agree with it at any ε: accept
        at the relaxed cutoff ``(1−ε)θ``, reject above θ."""
        partial = self._partial.pop(gid, None)
        if partial is not None:
            hits, unverified = (
                ranks[self._uncovered[ranks]] for ranks in partial
            )
            self.stats.partial_neighborhoods -= 1
            self.stats.verifications_skipped -= int(unverified.size)
            return hits, unverified
        ranks = np.flatnonzero(self._uncovered)
        if not ranks.size:
            return ranks, ranks  # nothing left here
        state = self.state
        embedding = self.index.embedding
        row, engine, source, member_ids = self._lens(gid)
        ids = state.relevant_local[ranks]
        cutoff = self._gen_theta + SLACK
        obs.counter(BLOCK_EVALS)
        lower = embedding.lower_bounds_to(row, ids)
        inside = lower <= cutoff
        ranks, ids, lower = ranks[inside], ids[inside], lower[inside]
        self.stats.candidates_generated += int(ranks.size)
        hit = embedding.upper_bounds_to(row, ids) <= cutoff
        own = state._rank.get(gid)
        if own is not None:
            hit |= ranks == own
        undecided = ~hit
        if undecided.any():
            known = engine.cached_verdicts(
                source, member_ids[ranks[undecided]],
                accept=cutoff, reject=self.theta + SLACK,
            )
            hit[undecided] = known > 0
            undecided[undecided] = known == 0
        order = np.argsort(-lower[undecided], kind="stable")
        return ranks[hit], ranks[undecided][order]

    def _park(
        self, gid: int, hits: np.ndarray, unverified: np.ndarray
    ) -> None:
        """Leave ``gid`` partially verified; ``hits + unverified`` is its
        bound from here on (written to the leaf when it has one here)."""
        self._partial[gid] = (hits, unverified)
        self.stats.partial_neighborhoods += 1
        self.stats.verifications_skipped += int(unverified.size)
        local = self.state.g2l.get(gid)
        if local is not None:
            self.bounds[self.index._leaf_of[local].node_id] = float(
                hits.size + unverified.size
            )

    def _within(self, gid: int, ranks: np.ndarray) -> np.ndarray:
        """Exact ``d(gid, member) ≤ θ + ε`` verdicts for window members."""
        _, engine, source, member_ids = self._lens(gid)
        # The window already applied the vantage lower bound at this
        # threshold — `prefiltered` skips re-running it.
        return engine.within(
            source, member_ids[ranks], self.theta, runtime=self.runtime,
            prefiltered=True,
        )

    # ------------------------------------------------------------------
    # Update (Theorems 6–8)
    # ------------------------------------------------------------------
    def apply_update(
        self, selected: int, newly: BitsetDelta, covered: np.ndarray
    ) -> None:
        """Batch-tighten bounds after ``selected`` (a member of any
        frontier) was added and the ``newly`` delta became covered.

        Subtrees provably outside the ``2θ`` influence ball are skipped
        (Theorem 6); clusters fully inside the new neighborhood with
        diameter ≤ θ get a single decrement (Theorem 7), with the
        recursion realizing Theorem 8 for partially overlapping parents.
        Leaves with a resolved neighborhood are refreshed to their exact
        residual gain.

        Every one of those predicates is monotone in the centroid distance
        ``cd``, so the vantage sandwich ``lower ≤ cd ≤ upper`` of
        ``selected`` against all walkable centroids (two array ops per
        selection) settles a cluster whenever both of its ends give the
        same verdict; only the rest pay exact distances, one batch per
        sibling group.  A leaf never pays one: its bound moves only by
        tests that need no distance (:meth:`_verdict`).
        """
        root = self.index.tree.root
        if self.bounds[root.node_id] == _NEG_INF:
            return  # no relevant member in this tree
        selected = int(selected)
        coords = self.state.walk_centroid_coords
        row = self._lens(selected)[0]
        lower = np.max(np.abs(coords - row), axis=1) - SLACK
        upper = np.min(coords + row, axis=1) + SLACK
        self._update(
            [root], selected, newly, covered, lower.tolist(), upper.tolist()
        )

    def _verdict(self, node: NBTreeNode, cd: float, newly: BitsetDelta) -> int:
        """What the update does to ``node`` at centroid distance ``cd``.

        A leaf's bound never depends on ``cd``: a resolved neighborhood is
        re-counted wherever the selection fell (:meth:`_update` re-counts a
        pruned one too), and a newly covered leaf lies in ``N_θ(selected)``
        (so ``cd ≤ θ + ε`` needs no checking).  A leaf is therefore asked
        with the sandwich's lower end only, and ``pruned_subtrees`` counts
        it when that alone proves Theorem 6 — a function of the leaf and
        the selection, whatever has been resolved."""
        theta = self.theta
        if cd - node.radius > 2.0 * theta + SLACK:
            return _PRUNE  # Theorem 6: no member's neighborhood changed.
        if node.is_leaf:
            gid = self.state.global_ids[node.graph_index]
            if gid in self._nbhd:
                return _REFRESH
            position = self.universe.position(gid)
            if position is not None and newly.test(position):
                # The leaf itself is newly covered: its own neighborhood
                # contains it, so its gain shrinks by at least one.
                return _DECREMENT
            return _KEEP
        if (
            node.diameter <= theta + SLACK
            and cd + node.radius <= theta + SLACK
        ):
            # Theorem 7 (exact-coverage form): the cluster is inside
            # N(selected) and every member's neighborhood contains the
            # cluster, so each loses the newly covered relevant members.
            return _BATCH
        return _DESCEND

    def _update(
        self,
        siblings: list[NBTreeNode],
        selected: int,
        newly: BitsetDelta,
        covered: np.ndarray,
        lower: list[float],
        upper: list[float],
    ) -> None:
        bounds = self.bounds
        state = self.state
        settled: list[tuple[NBTreeNode, int]] = []
        undecided: list[NBTreeNode] = []
        for node in siblings:
            if bounds[node.node_id] == _NEG_INF:
                continue
            slot = state.walk_slot[node.node_id]
            verdict = self._verdict(node, lower[slot], newly)
            if node.is_leaf or verdict == self._verdict(
                node, upper[slot], newly
            ):
                settled.append((node, verdict))
            else:
                undecided.append(node)
        if undecided:
            exact = self._distances(
                selected, [state.global_ids[node.centroid] for node in undecided]
            )
            settled.extend(
                (node, self._verdict(node, float(cd), newly))
                for node, cd in zip(undecided, exact)
            )
        for node, verdict in settled:
            if verdict == _PRUNE:
                self.stats.pruned_subtrees += 1
                # Out of reach, a resolved leaf keeps its residual — but an
                # ancestor's batch decrement may have left its bound stale.
                if node.is_leaf and state.global_ids[node.graph_index] in self._nbhd:
                    verdict = _REFRESH
            if verdict == _REFRESH:
                # Residual within this tree only — still an upper-bound
                # component; the coordinator adds foreign parts on top.
                gid = state.global_ids[node.graph_index]
                bounds[node.node_id] = float(
                    bitset_kernel.uncovered_count(self._nbhd[gid], covered)
                )
            elif verdict == _DECREMENT:
                bounds[node.node_id] = max(0.0, bounds[node.node_id] - 1.0)
            elif verdict == _BATCH:
                decrement = newly.intersection_count(
                    state.node_bits[node.node_id]
                )
                if decrement:
                    self.stats.batch_decrements += 1
                    bounds[node.node_id] = max(
                        0.0, bounds[node.node_id] - float(decrement)
                    )
            elif verdict == _DESCEND:
                self._update(
                    node.children, selected, newly, covered, lower, upper
                )
