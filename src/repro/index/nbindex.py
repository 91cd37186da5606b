"""NB-Index: the paper's index structure and query engine (Secs. 6.4 and 7).

An :class:`NBIndex` bundles the two offline components —

* the **vantage embedding** (Vantage Orderings of every database graph
  against a set of vantage points), and
* the **NB-Tree** (hierarchical disjoint clustering with per-node centroid,
  radius and diameter)

— plus the **threshold ladder** at which π̂-vectors are evaluated.

Query processing follows Section 7:

1. *Initialization* (per relevance function, θ-independent): the relevant
   set ``L_q`` is materialized and π̂ upper bounds are computed for the
   relevant graphs from the vantage embedding (Theorem 5), at the indexed
   threshold covering the query θ; bounds are propagated up the NB-Tree by
   taking ceilings (Eq. 14).  A :class:`QuerySession` caches all of this so
   interactive θ refinements skip straight to phase 2.
2. *Search* (per θ, per k): the lazy best-first greedy of
   :mod:`repro.index.coordinator` over one
   :class:`~repro.index.frontier.TreeFrontier` — Algorithm 2's tree walk.
   The paper's Theorem 6–8 update step is not run: bounds are left stale,
   which submodularity makes safe (``docs/theory.md``, §7).

:class:`QuerySession` is the *only* session type: sharded, mutable and
replicated indexes hand out the same class and differ in the
``_run_query`` hook that opens their frontiers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.bitset import BitsetUniverse, kernel as bitset_kernel
from repro.cascade import FilterCascade
from repro.core.results import QueryResult, QueryStats
from repro.engine import DistanceEngine
from repro.ged.metric import SLACK, GraphDistanceFn
from repro.graphs.database import GraphDatabase
from repro.index.coordinator import run_greedy
from repro.index.errors import OffLadderThetaError, ReadOnlyIndexError
from repro.index.frontier import TreeFrontier, TreeState
from repro.index.nbtree import NBTree, NBTreeNode
from repro.index.pivec import ThresholdLadder, choose_thresholds
from repro.index.vantage import VantageEmbedding, select_vantage_points
from repro.resilience.deadline import unbudgeted
from repro.utils.rng import ensure_rng
from repro.utils.validation import require, require_positive


class NBIndex:
    """The NB-Index over a graph database.

    Build once per database with :meth:`build`; run queries either directly
    (:meth:`query`) or through a :class:`QuerySession` when the relevance
    function is reused across θ refinements.

    ``distance`` is the metric or a :class:`~repro.engine.DistanceEngine`
    over it; either way the index evaluates every distance through
    :attr:`engine`, with its own embedding attached for the threshold
    checks' vantage sandwich.
    """

    def __init__(
        self,
        database: GraphDatabase,
        distance: GraphDistanceFn,
        *,
        embedding: VantageEmbedding,
        tree: NBTree,
        ladder: ThresholdLadder,
        build_seconds: float = 0.0,
    ):
        self.database = database
        self.engine = DistanceEngine.of(distance, database.graphs)
        self.engine.attach_embedding(embedding)
        self.embedding = embedding
        self.tree = tree
        self.ladder = ladder
        self.build_seconds = build_seconds
        self._leaf_of: dict[int, NBTreeNode] = {
            node.graph_index: node for node in tree.nodes if node.is_leaf
        }

    @property
    def distance(self) -> GraphDistanceFn:
        """The metric under :attr:`engine` — what reopening this index
        (a hot reload, a compaction) hands to the loader."""
        return self.engine.inner

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        database: GraphDatabase,
        distance: GraphDistanceFn,
        *,
        num_vantage_points: int = 20,
        branching: int = 8,
        thresholds: ThresholdLadder | None = None,
        seed=None,
        vp_strategy: str = "random",
        validate_metric: bool = False,
    ) -> "NBIndex":
        """Build the index: select VPs, embed the database, cluster it.

        ``distance`` must be a metric (Sec. 6.1) — every pruning theorem
        depends on the triangle inequality.  ``validate_metric=True`` spot
        checks the axioms on sampled triples before building and raises on
        violation; it costs a few dozen extra distance calls and is
        recommended for user-supplied distances.  When ``thresholds`` is
        omitted, a slope-proportional ladder is derived from sampled
        pairwise distances (Sec. 7.1, scheme 2).

        Every distance goes through one
        :class:`~repro.engine.DistanceEngine` (batched evaluation + a
        symmetric pair cache); pass a prebuilt engine as ``distance`` to
        share its cache across builds.

        ``seed`` (an int or a numpy Generator) drives vantage/pivot
        selection.  A build is not resumable — a killed one starts again
        from zero, and an ambient deadline does not reach it: it stores
        exact distances only.
        """
        require_positive(num_vantage_points, "num_vantage_points")
        require(len(database) > 0, "cannot index an empty database")
        rng = ensure_rng(seed)
        engine = DistanceEngine.of(distance, database.graphs)
        if validate_metric:
            _spot_check_metric(database, engine, rng)

        started = time.perf_counter()
        with unbudgeted(), obs.span(
            "index.build", n=len(database), branching=branching,
        ) as build_span:
            vp_count = min(num_vantage_points, len(database))
            build_span.set(num_vantage_points=vp_count)

            with obs.span("index.vantage_select", strategy=vp_strategy), \
                    obs.timer("index.vantage_select_seconds"):
                vp_indices = select_vantage_points(
                    database.graphs, vp_count, rng=rng, strategy=vp_strategy,
                    distance=engine,
                )

            with obs.span("index.embed"), obs.timer("index.embed_seconds"):
                embedding = VantageEmbedding(database.graphs, vp_indices, engine)

            if thresholds is None:
                with obs.span("index.ladder"), obs.timer("index.ladder_seconds"):
                    if len(database) < 2:
                        thresholds = ThresholdLadder([1.0])
                    else:
                        thresholds = choose_thresholds(
                            database.graphs, engine, count=10,
                            num_pairs=min(1000, len(database) * 4), rng=rng,
                        )

            with obs.span("index.tree_build") as tree_span, \
                    obs.timer("index.tree_build_seconds"):
                tree = NBTree(
                    database.graphs, engine, embedding, branching=branching,
                    rng=rng,
                )
                tree_span.set(nodes=tree.num_nodes)
            obs.counter("index.tree.exact_distances", tree.stats.exact_distances)
            obs.counter("index.tree.pruned_by_vantage", tree.stats.pruned_by_vantage)
        build_seconds = time.perf_counter() - started
        obs.observe_time("index.build_seconds", build_seconds)
        return cls(
            database, engine, embedding=embedding, tree=tree,
            ladder=thresholds, build_seconds=build_seconds,
        )

    @classmethod
    def from_coords(
        cls,
        database: GraphDatabase,
        distance: GraphDistanceFn,
        vantage_indices,
        coords: np.ndarray,
        *,
        branching: int,
        thresholds: ThresholdLadder,
        rng,
    ) -> "NBIndex":
        """Build over vantage coordinates that already exist: only the
        NB-Tree costs distances.  This is how a shard of a bundle is built
        — ``coords`` are its members' rows of the bundle's one
        :class:`~repro.index.vantage.VantageFrame` and ``vantage_indices``
        the frame's global ids, so the embedding is
        :attr:`~repro.index.vantage.VantageEmbedding.framed` and the index
        refuses the in-place :meth:`insert`.  The shard always gets an
        engine of its own: it speaks the sub-database's local ids."""
        started = time.perf_counter()
        engine = DistanceEngine(distance, graphs=database.graphs)
        embedding = VantageEmbedding.from_coords(
            database.graphs, vantage_indices, engine, coords
        )
        embedding.framed = True
        tree = NBTree(
            database.graphs, engine, embedding, branching=branching, rng=rng
        )
        return cls(
            database, engine, embedding=embedding, tree=tree,
            ladder=thresholds, build_seconds=time.perf_counter() - started,
        )

    def stats(self) -> dict:
        """Statable protocol: one plain dict covering the whole index,
        nesting the engine's and tree-build accounting."""
        return {
            "num_graphs": len(self.database),
            "num_shards": 1,  # normalized schema: a plain index is S=1
            "num_vantage_points": self.embedding.num_vantage_points,
            "branching": self.tree.branching,
            "tree_nodes": self.tree.num_nodes,
            "ladder_thresholds": len(self.ladder),
            "build_seconds": self.build_seconds,
            "distance_calls": self.engine.calls,
            "memory_bytes": self._memory_bytes(),
            "coverage_bytes": self._coverage_bytes(),
            "tree_build": {
                "exact_distances": self.tree.stats.exact_distances,
                "pruned_by_vantage": self.tree.stats.pruned_by_vantage,
            },
            "engine": self.engine.stats(),
        }

    def _memory_bytes(self) -> int:
        """Approximate resident size of the index structures (Fig. 6(l)).

        Counts the vantage-coordinate matrix and, per tree node, the member
        id array plus the fixed scalar fields.
        """
        total = self.embedding.coords.nbytes
        per_node_fixed = 8 * 6  # id, centroid, radius, diameter, parent refs
        for node in self.tree.nodes:
            total += node.members.nbytes + per_node_fixed
        total += 8 * len(self.ladder)
        return total

    def _coverage_bytes(self) -> int:
        """Upper bound on the packed coverage state of a worst-case session.

        A query keeps the running covered bitset and at most one resolved
        residual-neighborhood row per relevant leaf, all over a universe
        of at most ``|DB|`` ids; one row per tree node bounds that.  This
        is the footprint the bitset kernel trades against per-id
        frozensets (~60 bytes per stored id); ``bench_fig6l_index_memory``
        reports both.
        """
        words = bitset_kernel.num_words(len(self.database))
        return (self.tree.num_nodes + 1) * words * 8

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def session(self, query_fn) -> "QuerySession":
        """Start a session for a fixed relevance function ``q``.

        The session performs the initialization phase once and amortizes it
        over any number of (θ, k) queries — the paper's interactive
        refinement mode.
        """
        return QuerySession(self, query_fn)

    def query(self, query_fn, theta: float, k: int, **kwargs) -> QueryResult:
        """One-shot top-k representative query (fresh session)."""
        check_query_kwargs(self, kwargs)
        return self.session(query_fn).query(theta, k, **kwargs)

    # -- QuerySession hooks (see QuerySession.query) --------------------
    #: Names this index's ``<layer>.query`` span.
    _query_layer = "index"

    def _distance_calls(self) -> int:
        return self.engine.calls

    def _tree_state(self, session: "QuerySession") -> TreeState:
        """The session's state for this index's one tree (identity ids)."""
        return session.cached(0, lambda: TreeState(
            self, np.arange(len(self.database)), session.relevant,
            session.universe,
        ))

    def _run_query(self, run: "QueryRun"):
        """One tree frontier: the S = 1 case of the coordinated greedy."""
        frontier = TreeFrontier(
            self._tree_state(run.session), run.theta, run.ladder_index,
            run.stats, run.runtime,
        )
        return run.greedy([frontier], lambda gid: frontier)

    def set_ladder(self, ladder: ThresholdLadder) -> None:
        """Swap the π̂ threshold ladder.

        The ladder is consulted only at query-session initialization (the
        tree and embedding are ladder-independent), so re-laddering an
        existing index — e.g. after a query log accumulates, Sec. 7.1
        scheme 1 — is free.  Open sessions keep their old ladder.
        """
        require(len(ladder) >= 1, "ladder must be non-empty")
        self.ladder = ladder

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    #: Index-protocol capability flag: a plain NBIndex is a read-only
    #: view of an offline build (the legacy in-place :meth:`insert`
    #: notwithstanding) — open with ``repro.open_index(path,
    #: mutable=True)`` for the journaled delta layer.
    mutable = False

    def delete(self, gid: int) -> bool:
        raise ReadOnlyIndexError("delete", "NBIndex")

    def update(self, gid: int, graph, feature_row) -> int:
        raise ReadOnlyIndexError("update", "NBIndex")

    def compact(self) -> dict:
        raise ReadOnlyIndexError("compact", "NBIndex")

    def insert(self, graph, feature_row) -> int:
        """Add one graph to the database and the index; returns its id.

        The new graph is embedded against the vantage points, then routed
        down the NB-Tree to the closest-centroid cluster at each level and
        attached as a new leaf.  Cluster radii and diameters are *expanded
        conservatively* (``radius ← max(radius, d)``,
        ``diameter ← max(diameter, d + old_radius)``), which keeps both
        true upper bounds; tree balance may degrade under heavy
        insertion, in which case rebuild.  Open sessions are invalidated —
        start a new session after inserting.
        """
        from repro.index.nbtree import NBTreeNode

        if self.embedding.framed:
            # Its vantage graphs live in the bundle's frame, not here.
            raise ReadOnlyIndexError("insert", "NBIndex (a bundle's shard)")
        new_id = self.database.append(graph, feature_row)
        graph = self.database[new_id]
        # A stored coordinate must be exact; a radius grown from an upper
        # bound stays an upper bound, so routing may run under a deadline.
        with unbudgeted():
            self.embedding.append_graph(graph)

        tree = self.tree
        if tree.root.is_leaf:
            # Single-graph tree: grow an internal root above the old leaf.
            old_leaf = tree.root
            new_root = NBTreeNode(
                node_id=len(tree.nodes),
                centroid=old_leaf.graph_index,
                radius=0.0,
                diameter=0.0,
                members=old_leaf.members.copy(),
                children=[old_leaf],
            )
            tree.nodes.append(new_root)
            tree.root = new_root
        node = tree.root
        while True:
            node.members = np.sort(np.append(node.members, new_id))
            internal_children = [c for c in node.children if not c.is_leaf]
            distance_to_centroid = self.engine(
                graph, self.database[node.centroid]
            )
            node.radius = max(node.radius, distance_to_centroid)
            node.diameter = max(
                node.diameter, distance_to_centroid + node.radius
            )
            if not internal_children:
                break
            node = min(
                internal_children,
                key=lambda c: self.engine(graph, self.database[c.centroid]),
            )

        leaf = NBTreeNode(
            node_id=len(tree.nodes),
            centroid=new_id,
            radius=0.0,
            diameter=0.0,
            members=np.array([new_id]),
            graph_index=new_id,
        )
        tree.nodes.append(leaf)
        node.children.append(leaf)
        self._leaf_of[new_id] = leaf
        return new_id

    def __repr__(self) -> str:
        return (
            f"<NBIndex n={len(self.database)} "
            f"|V|={self.embedding.num_vantage_points} "
            f"b={self.tree.branching} nodes={self.tree.num_nodes}>"
        )


def _spot_check_metric(database, distance, rng, num_triples: int = 25) -> None:
    """Sample triples and verify the metric axioms; raise on violation."""
    n = len(database)
    for _ in range(num_triples):
        a, b, c = (int(rng.integers(n)) for _ in range(3))
        d_ab = distance(database[a], database[b])
        d_ba = distance(database[b], database[a])
        if abs(d_ab - d_ba) > SLACK:
            raise ValueError(
                f"distance is not symmetric: d(g{a}, g{b})={d_ab} but "
                f"d(g{b}, g{a})={d_ba}"
            )
        if a == b and d_ab > SLACK:
            raise ValueError(f"d(g{a}, g{a}) = {d_ab} != 0")
        if d_ab < -SLACK:
            raise ValueError(f"negative distance d(g{a}, g{b}) = {d_ab}")
        d_ac = distance(database[a], database[c])
        d_cb = distance(database[c], database[b])
        if d_ab > d_ac + d_cb + SLACK:
            raise ValueError(
                "triangle inequality violated on sampled triple "
                f"(g{a}, g{c}, g{b}): {d_ab} > {d_ac} + {d_cb}; "
                "the NB-Index requires a metric distance"
            )


#: Keyword arguments :meth:`QuerySession.query` accepts beyond (θ, k).
_QUERY_KWARGS = frozenset(
    {"stop_on_zero_gain", "deadline", "epsilon"}
)


def check_query_kwargs(index, kwargs: dict) -> None:
    """Reject unknown ``index.query(...)`` keywords, naming the index."""
    unknown = set(kwargs) - _QUERY_KWARGS
    if unknown:
        raise TypeError(
            f"{type(index).__name__}.query() got unexpected keyword "
            f"arguments {sorted(unknown)}; accepted: {sorted(_QUERY_KWARGS)}"
        )


@dataclass
class QueryRun:
    """One (θ, k) query in flight — what an index's ``_run_query`` hook
    needs to open its frontiers, plus the loop to drive them with."""

    session: "QuerySession"
    theta: float
    ladder_index: int
    stats: QueryStats
    #: The query's :class:`~repro.cascade.FilterCascade`: its ε and the
    #: filter counters, shared by every frontier.
    runtime: FilterCascade
    #: The effective (explicit or ambient) deadline, or ``None``.
    deadline: object
    span: object
    #: ``greedy(frontiers, home_of) -> (answer, gains, covered, coord)``.
    greedy: Callable


class QuerySession:
    """Per-relevance-function query state, for every index type.

    Holds the relevant set, its :class:`~repro.bitset.BitsetUniverse`, and
    whatever θ-independent state the index's frontiers cache on it (one
    :class:`~repro.index.frontier.TreeState` per NB-Tree, built lazily by
    the first :meth:`query`) — everything that survives a θ refinement.

    The index supplies three hooks: ``_query_layer`` (names the span and
    the obs roll-up), ``_distance_calls()`` (its engines' running total)
    and ``_run_query(run)``, which opens its frontiers for this
    (session, θ) and returns ``run.greedy(frontiers, home_of)``.
    """

    def __init__(self, index, query_fn):
        self.index = index
        self.query_fn = query_fn
        started = time.perf_counter()
        self.relevant = index.database.relevant_indices(query_fn)
        self.relevant_set = frozenset(int(i) for i in self.relevant)
        #: Shared global id ↔ bit position codec; every frontier's bitsets
        #: are laid out against this universe.
        self.universe = BitsetUniverse(self.relevant)
        self._cache: dict = {}
        self.init_seconds = time.perf_counter() - started
        obs.observe_time("query.session_init_seconds", self.init_seconds)

    def cached(self, key, build):
        """θ-independent state an index hook keeps for the session's life:
        ``build()`` runs on first use only."""
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value

    # -- plain-NBIndex view (theorem tests, micro-benchmarks) ------------
    def pi_hat_column(self, ladder_index: int | None) -> np.ndarray:
        """π̂ counts (|N̂| over L_q) for every relevant graph at one indexed
        threshold; the trivial bound |L_q| when θ exceeds the ladder."""
        return self.index._tree_state(self).pi_hat_column(ladder_index)

    # -- the top-k query -----------------------------------------------
    def query(
        self,
        theta: float,
        k: int,
        stop_on_zero_gain: bool = False,
        deadline=None,
        epsilon: float = 0.0,
    ) -> QueryResult:
        """Run the search phase for (θ, k).

        ``stop_on_zero_gain=True`` ends the query once no remaining graph
        adds coverage (the answer may then be smaller than k); the default
        mirrors Algorithm 1, which always performs k iterations.

        ``deadline`` (or an ambient :func:`~repro.resilience.deadline_scope`)
        budgets the query's exact-GED work: calls that exceed it degrade to
        upper bounds and the result's :class:`QueryStats` is marked
        ``degraded`` with the per-kind counts — an answer computed under
        pressure is flagged, never silently approximate.

        ``epsilon`` in ``[0, 1)`` selects the ε-relaxed approximate mode
        (``docs/cascade.md``); which lower bounds filter candidates is
        decided by the index's metric, not by the caller.
        """
        require_positive(theta, "theta")
        require_positive(k, "k")
        from repro.resilience.deadline import current_deadline, deadline_scope

        runtime = FilterCascade(epsilon)
        index = self.index
        layer = index._query_layer
        ladder_index = index.ladder.index_for(theta)
        if ladder_index is None:
            # θ above the top rung has no indexed π̂ bound; refusing beats
            # silently degrading to a linear scan via the trivial |L_q|
            # bound (sessions may still opt into it via pi_hat_column(None)).
            obs.counter("index.offladder_theta")
            raise OffLadderThetaError(theta, index.ladder)
        stats = QueryStats(init_seconds=self.init_seconds)
        calls_before = index._distance_calls()
        effective_deadline = deadline if deadline is not None else current_deadline()
        degradations_before = (
            dict(effective_deadline.degradations)
            if effective_deadline is not None else {}
        )

        def greedy(frontiers, home_of):
            return run_greedy(
                frontiers, home_of, self.universe, k, int(self.relevant.size),
                stop_on_zero_gain=stop_on_zero_gain, stats=stats,
            )

        with deadline_scope(deadline), \
                obs.span(f"{layer}.query", theta=theta, k=k) as query_span:
            started = time.perf_counter()
            answer, gains, covered, coord = index._run_query(QueryRun(
                self, theta, ladder_index, stats, runtime,
                effective_deadline, query_span, greedy,
            ))
            # Everything the hook did outside the loop's own search timer:
            # opening (and, first time, building) its frontiers.
            stats.init_seconds += (
                time.perf_counter() - started - stats.search_seconds
            )
            stats.distance_calls = index._distance_calls() - calls_before
            if layer != "index":
                # A plain NBIndex reports the paper's single-index
                # counters; the loop's accounting is for the coordinated
                # deployments.
                stats.coordinator = coord
                query_span.set(scatter_resolves=coord["scatter_resolves"])
            stats.epsilon = runtime.epsilon
            stats.approximate = runtime.approximate
            stats.cascade = runtime.snapshot()
            if effective_deadline is not None:
                stats.degradations = {
                    kind: count - degradations_before.get(kind, 0)
                    for kind, count in effective_deadline.degradations.items()
                    if count > degradations_before.get(kind, 0)
                }
            if stats.degraded:
                obs.counter("query.degraded")
            query_span.set(answer_size=len(answer), degraded=stats.degraded)
            _record_query_obs(layer, stats)
        return QueryResult(
            answer=answer,
            gains=gains,
            covered=self.universe.decode_frozenset(covered),
            num_relevant=int(self.relevant.size),
            theta=theta,
            stats=stats,
        )

    def __repr__(self) -> str:
        return (
            f"<QuerySession relevant={self.relevant.size} "
            f"of {len(self.index.database)} ({self.index._query_layer})>"
        )


def _record_query_obs(layer: str, stats: QueryStats) -> None:
    """Mirror one query's :class:`QueryStats` into the active registry."""
    if not obs.enabled():
        return
    obs.counter("query.count")
    coord = stats.coordinator
    if coord:
        obs.counter(f"{layer}.query.count")
        for key in (
            "rounds", "pulls", "pi_hat_refines", "refine_prunes",
            "partial_scatters", "memo_prunes", "scatter_resolves",
            "foreign_embeds",
        ):
            obs.counter(f"shard.coordinator.{key}", coord[key])
    else:
        obs.counter("query.candidates_generated", stats.candidates_generated)
        obs.counter("query.candidate_verifications", stats.candidate_verifications)
    obs.counter("query.distance_calls", stats.distance_calls)
    obs.counter("query.exact_neighborhoods", stats.exact_neighborhoods)
    obs.counter("query.partial_neighborhoods", stats.partial_neighborhoods)
    obs.counter("query.verifications_skipped", stats.verifications_skipped)
    obs.counter("query.nodes_popped", stats.nodes_popped)
    obs.counter("query.leaves_evaluated", stats.leaves_evaluated)
    obs.observe_time("query.init_seconds", stats.init_seconds)
    obs.observe_time("query.search_seconds", stats.search_seconds)
