"""The query path's frontier protocol and its index implementation.

Every deployment answers a top-k query the same way
(``docs/internals.md``, "The query path"):

    session  →  index hook  →  frontiers  →  one greedy loop

A :class:`~repro.index.nbindex.QuerySession` owns the relevant set and the
(θ, k) prologue/epilogue; the index's ``_run_query`` hook opens one
:class:`Frontier` per participant; :func:`repro.index.coordinator.run_greedy`
drives them.  A frontier speaks *global* graph ids and packed bitsets over
the session's :class:`~repro.bitset.BitsetUniverse`, and answers two
needs: **candidates** in bound order (:meth:`Frontier.open_round`) and
**resolution** of any graph's θ-neighborhood within its own relevant
members — only as far as the coordinator's deficit asks
(:meth:`Frontier.neighborhood_of`, with :meth:`Frontier.pi_hat_uncovered`
as the tier that pays no verification).

Neighborhoods are *residual*: coverage only grows within a query, so the
members already covered when a neighborhood is resolved can never count
towards a later gain, and a frontier may leave them out.

Three implementations: :class:`IndexFrontier` here (one index's
relevant members; a plain ``NBIndex`` or a sharded bundle queries one of
these over the identity id map, and
:class:`~repro.shard.frontier.ShardFrontier` adds seeing graphs that live
elsewhere through the bundle's vantage frame, for a mutable base; a
replica worker serves its whole bundle through one too),
:class:`~repro.delta.frontier.ExactFrontier` (the un-indexed memtable,
scanned exactly) and :class:`~repro.replica.remote.RemoteFrontier` (a
replica's whole-bundle frontier behind the wire).

The index frontier is the paper's Section 7 search without the NB-Tree
and without its update step: each relevant member carries one working
upper bound (π̂ at θ, computed per query over L_q), tightened only where
a round learned something — a member's exact or partial count, a
selection — and a round visits the members in bound order
(:class:`FlatRoundSearch`).  The paper's tree added per-node maxima of
those bounds (Eq. 14), which nothing ever tightened, so its best-first
walk popped the leaves in the same order plus stale internal nodes in
between (``docs/theory.md``, §6).  Nothing is re-scanned after a
selection: submodularity makes stale bounds safe (true marginal gains
only shrink as the answer grows), and a resolved member's gain is
re-counted by one popcount when it is visited.  The paper's Theorem 6–8
update walk is not run: measured, it cost more exact calls than it saved
on every workload (``docs/theory.md``, §7).

Id discipline (load-bearing): the index's own engine and embedding speak
*local* ids, positions in the database it was built over (a shard
artifact loaded over its sub-database renumbers 0..n_s−1); everything
that crosses an index boundary uses *global* ids.  Mixing the two in one engine
would alias different graphs onto the same pair-cache key.
"""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np

from repro import obs
from repro.bitset import BitsetUniverse, kernel as bitset_kernel
from repro.cascade import BLOCK_EVALS, FilterCascade
from repro.core.results import QueryStats
from repro.ged.metric import SLACK

_NEG_INF = float("-inf")
#: A verification batch smaller than this costs more in dispatch (engine,
#: cascade and kernel set-up ≈ the price of 3–4 star distances) than the
#: verdicts it could save.
_MIN_VERIFY_BATCH = 4
#: Tie-break sentinel for a frontier with no relevant members; larger
#: than any real graph id, so it loses every tie-break.
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


class MemberState:
    """θ-independent state of one index's members for one relevance function.

    Id maps, the index's relevant members (ascending global ids, which is
    also the (gain, min-id) tie-break order) and, per θ, the π̂ column the
    round search starts from.  A session builds it once per index —
    lazily, inside its first ``query()`` — and every (θ, k) refinement
    opens a fresh :class:`IndexFrontier` over it.
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

        # Relevant graphs of this index, aligned local/global, ascending.
        rel = [
            g for g in np.asarray(relevant_global).tolist() if g in self.g2l
        ]
        self.relevant_global = np.asarray(rel, dtype=np.int64)
        self.relevant_local = np.asarray(
            [self.g2l[g] for g in rel], dtype=np.int64
        )
        #: Global ids as plain ints, aligned with ``relevant_local``.
        self.relevant_list = rel
        self._rank = {g: p for p, g in enumerate(rel)}
        #: Bit positions (in the universe) of the relevant members,
        #: aligned with ``relevant_local``, and the same as one bitset.
        self.rel_positions = universe.positions_of(self.relevant_global)
        self.member_bits = universe.encode_positions(self.rel_positions)
        self._pi_hat_columns: dict[float, np.ndarray] = {}

    def pi_hat_column(self, theta: float) -> np.ndarray:
        """π̂ counts at θ — ``|N̂_{θ+ε}|`` among the relevant members,
        the vantage window count (Theorem 5) — aligned with
        ``relevant_local``; one Chebyshev pass per θ, cached."""
        column = self._pi_hat_columns.get(theta)
        if column is None:
            members = self.relevant_local
            if members.size:
                column = self.index.embedding.candidate_counts(
                    members, [theta + SLACK], members
                )[:, 0]
            else:
                column = np.empty(0, dtype=np.int64)
            self._pi_hat_columns[theta] = column
        return column


class FlatRoundSearch:
    """One frontier's lazy best-first scan for one greedy round.

    Members are visited in (−bound, gid) order of their working bounds at
    the round's start — the order a lazy max-heap over the members pops
    them in (Minoux's lazy greedy; CELF).  A visit either resolves the
    member's exact gain, which is returned and left behind as its bound
    (stale-high later, re-counted when visited again), or proves it out of
    the round, leaving ``hits + unverified`` behind
    (:meth:`IndexFrontier.resolve`).  Nothing else moves a bound during a
    round, so the order taken at the start stays the pop order.  The scan
    stops at the first bound below ``min_useful``; every member after it
    is no better (lines 6-7 of Algorithm 2)."""

    def __init__(self, frontier: IndexFrontier, covered: np.ndarray):
        self.frontier = frontier
        self.covered = covered
        self._order = np.argsort(-frontier.bounds, kind="stable").tolist()
        self._next = 0

    def peek(self) -> float:
        if self._next == len(self._order):
            return _NEG_INF
        return float(self.frontier.bounds[self._order[self._next]])

    def next(
        self, min_useful: float, tie_gid: int | None
    ) -> tuple[int, float, np.ndarray] | None:
        frontier = self.frontier
        bounds = frontier.bounds
        gids = frontier.state.relevant_list
        order = self._order
        stats = frontier.stats
        while self._next < len(order):
            rank = order[self._next]
            bound = float(bounds[rank])
            stats.nodes_popped += 1
            if bound == _NEG_INF or bound < min_useful:
                # Everything left is no better; the cursor stays put so
                # peek() stays honest for the coordinator's ranking.
                return None
            self._next += 1
            gid = gids[rank]
            # A member that could only *tie* still matters when its id is
            # smaller — the canonical selection rule is (max gain, min
            # id), which makes the answer independent of partitioning.
            if tie_gid is not None and bound == min_useful and gid > tie_gid:
                continue
            neighborhood = frontier.resolve(gid, min_useful, tie_gid)
            if neighborhood is None:
                continue  # proven unable to win; its bound says so now
            gain = float(
                bitset_kernel.uncovered_count(neighborhood, self.covered)
            )
            bounds[rank] = gain
            stats.leaves_evaluated += 1
            return gid, gain, neighborhood
        return None


class IndexFrontier:
    """One index's state for one (θ, k) query.

    Complete on its own when every graph the query can select is a member
    — a plain ``NBIndex`` or a sharded bundle, in process or in a replica
    worker; a mutable base sees graphs that live elsewhere (its memtable's)
    through :class:`~repro.shard.frontier.ShardFrontier`.

    Each relevant member carries one working bound in :attr:`bounds`
    (aligned with the state's members): π̂ at θ, then ``hits +
    unverified`` once a round proved it out, then its resolved gain, and
    ``-inf`` once selected.  The bound on a graph's residual gain among
    this index's members descends through successively tighter bounds,
    each paid for only when a round needs it: π̂ at θ (a member) or the uncovered-member count (a
    stranger)
    → the Chebyshev window over the members still uncovered → ``hits +
    unverified`` of a partially verified window → the exact gain
    (:meth:`resolve`).
    """

    def __init__(
        self,
        state: MemberState,
        theta: float,
        stats: QueryStats,
        runtime: FilterCascade,
    ):
        self.state = state
        self.index = state.index
        self.universe = state.universe
        self.relevant_global = state.relevant_global
        self.theta = float(theta)
        self.stats = stats
        #: The query's filter runtime, shared by all of its frontiers.
        self.runtime = runtime
        self.bounds = state.pi_hat_column(self.theta).astype(float)
        #: Resolved residual θ-neighborhoods within this index's relevant
        #: members, as packed bitsets keyed by global id.
        self._nbhd: dict[int, np.ndarray] = {}
        #: Graphs verified only far enough to prove they could not win a
        #: round: ``gid → (hits, unverified)`` as ranks into the state's
        #: relevant members, ``unverified`` in verification order.
        self._partial: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: Graphs whose ``unverified`` is in :meth:`_misses_first` order.
        self._ordered: set[int] = set()
        self.uncovered_count = int(self.relevant_global.size)
        self._uncovered = np.ones(self.relevant_global.size, dtype=bool)
        self._covered = self.universe.empty()

    #: Nothing is foreign to a frontier that holds every candidate.
    foreign_embeds = 0
    #: The cursor :meth:`open_round` opens.
    round_search = FlatRoundSearch

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
        """The best live member bound."""
        return float(self.bounds.max()) if self.bounds.size else _NEG_INF

    def min_gid_bound(self) -> int:
        gids = self.state.relevant_list
        return gids[0] if gids else _NO_GID

    def open_round(self, covered: np.ndarray) -> FlatRoundSearch:
        return self.round_search(self, covered)

    def select(self, gid: int) -> None:
        """Mark a home graph as chosen: it leaves the frontier."""
        self.bounds[self.state._rank[int(gid)]] = _NEG_INF

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

        The window's undecided members are verified in batches sized to
        the deficit, likeliest misses first (:meth:`_misses_first`, ranked
        the first time a batch is only part of what is left: until then
        the order is moot).  The order decides only which verdicts come
        first, never which members are in the window, so the answer is
        the same in any order; a good one proves a loser out sooner.

        Returns the graph's residual neighborhood — ``N_θ(gid)`` within the
        members uncovered as of this round, packed, cached — once every
        window member has a verdict.  Returns ``None`` as soon as ``hits +
        unverified`` shows the count cannot beat ``min_useful`` (or tie it
        with an id below ``tie_gid``): that count stays behind as the
        working bound (of a home graph) and ``(hits,
        unverified)`` as the partial state, picked up — minus whatever got
        covered meanwhile — on the next visit.

        ``gid`` may live elsewhere: the window is then taken from its row
        of the bundle's frame and verified through the global engine
        (:meth:`_lens`); ``min_useful`` is what the coordinator still needs
        from this frontier.

        Membership is always ``d(gid, c) ≤ θ + SLACK``, so the union over
        frontiers equals the single-index neighborhood.
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
            if take < unverified.size and gid not in self._ordered:
                unverified = self._misses_first(gid, unverified)
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
        — the index's own engine and local ids for a member."""
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
        with ``unverified`` in rank order, for :meth:`resolve` to rank
        (:meth:`_misses_first`) when the order first matters.  Every verdict
        compares against the one threshold ``θ + SLACK``, so the window
        runs the whole vantage sandwich and leaves the filter none of it."""
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
        cutoff = self.theta + SLACK
        obs.counter(BLOCK_EVALS)
        inside = embedding.lower_bounds_to(row, ids) <= cutoff
        ranks, ids = ranks[inside], ids[inside]
        self.stats.candidates_generated += int(ranks.size)
        hit = embedding.upper_bounds_to(row, ids) <= cutoff
        own = state._rank.get(gid)
        if own is not None:
            hit |= ranks == own
        undecided = ~hit
        if undecided.any():
            known = engine.cached_verdicts(
                source, member_ids[ranks[undecided]], cutoff
            )
            hit[undecided] = known > 0
            undecided[undecided] = known == 0
        return ranks[hit], ranks[undecided]

    def _misses_first(self, gid: int, unverified: np.ndarray) -> np.ndarray:
        """``gid``'s unverified window members, likeliest misses first.

        The score is free at this point: descending ``lo + hi + 2·gap`` —
        the vantage sandwich plus the engine's
        :meth:`~repro.engine.DistanceEngine.profile_gap`, taken in the
        lens's id space — or descending ``lo`` where the engine has no gap
        (no attached graph has an edge: a vector database, where the
        midpoint ranked worse); ties in rank order.  Each pair's score is fixed, so ranking what a parked
        window still holds gives the order ranking it whole would have
        left; the window stays ranked (:attr:`_ordered`) while parked."""
        self._ordered.add(gid)
        row, engine, source, member_ids = self._lens(gid)
        embedding = self.index.embedding
        ids = self.state.relevant_local[unverified]
        score = embedding.lower_bounds_to(row, ids)
        gap = engine.profile_gap(source, member_ids[unverified])
        if gap is not None:
            score = score + embedding.upper_bounds_to(row, ids) + 2.0 * gap
        return unverified[np.lexsort((unverified, -score))]

    def _park(
        self, gid: int, hits: np.ndarray, unverified: np.ndarray
    ) -> None:
        """Leave ``gid`` partially verified; ``hits + unverified`` is its
        bound from here on (written to :attr:`bounds` for a member)."""
        self._partial[gid] = (hits, unverified)
        self.stats.partial_neighborhoods += 1
        self.stats.verifications_skipped += int(unverified.size)
        rank = self.state._rank.get(gid)
        if rank is not None:
            self.bounds[rank] = float(hits.size + unverified.size)

    def _within(self, gid: int, ranks: np.ndarray) -> np.ndarray:
        """Exact ``d(gid, member) ≤ θ + SLACK`` verdicts for window members."""
        _, engine, source, member_ids = self._lens(gid)
        # The window already ran the vantage sandwich at this threshold:
        # `prefiltered` skips the step, which would decide nothing.
        return engine.within(
            source, member_ids[ranks], self.theta, runtime=self.runtime,
            prefiltered=True,
        )
