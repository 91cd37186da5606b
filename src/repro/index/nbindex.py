"""NB-Index: the paper's index structure and query engine (Secs. 6 and 7).

An :class:`NBIndex` is the one offline component that costs distances,
the **vantage embedding** (Vantage Orderings of every database graph
against a set of vantage points), and nothing else.  The paper's NB-Tree
is not built: once π̂ is computed per query over L_q, its per-node maxima
add nothing (``docs/theory.md``, §6); nor are its stored π̂-vectors
(Sec. 7.1), since π̂ is taken at θ itself.

Query processing follows Section 7:

1. *Initialization* (per relevance function, θ-independent): the relevant
   set ``L_q`` is materialized.  A :class:`QuerySession` caches it, and
   the per-θ π̂ columns computed from the vantage embedding (Theorem 5),
   so interactive θ refinements skip straight to phase 2.
2. *Search* (per θ, per k): the lazy best-first greedy of
   :mod:`repro.index.coordinator` over one
   :class:`~repro.index.frontier.IndexFrontier` — Algorithm 2 over a flat
   bound order.  The paper's Theorem 6–8 update step is not run: bounds
   are left stale, which submodularity makes safe (``docs/theory.md``,
   §7).

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
from repro.core.results import QueryResult, QueryStats, certify
from repro.engine import DistanceEngine
from repro.ged.metric import SLACK, GraphDistanceFn
from repro.graphs.database import GraphDatabase
from repro.index.coordinator import run_greedy
from repro.index.errors import ReadOnlyIndexError
from repro.index.frontier import IndexFrontier, MemberState
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
        build_seconds: float = 0.0,
    ):
        self.database = database
        self.engine = DistanceEngine.of(distance, database.graphs)
        self.engine.attach_embedding(embedding)
        self.embedding = embedding
        self.build_seconds = build_seconds

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
        thresholds=None,
        seed=None,
        vp_strategy: str = "random",
        validate_metric: bool = False,
    ) -> "NBIndex":
        """Build the index: select VPs, embed the database.

        ``distance`` must be a metric (Sec. 6.1) — every pruning theorem
        depends on the triangle inequality.  ``validate_metric=True`` spot
        checks the axioms on sampled triples before building and raises on
        violation; it costs a few dozen extra distance calls and is
        recommended for user-supplied distances.

        Every distance goes through one
        :class:`~repro.engine.DistanceEngine` (batched evaluation + a
        symmetric pair cache).  Pass a prebuilt engine as ``distance`` and
        the build reads its cache; it stores nothing there, not even the
        ``n · |V|`` embedding (the index itself).

        ``seed`` (an int or a numpy Generator) drives vantage selection.
        ``branching`` and ``thresholds`` (the paper's tree fan-out and π̂
        ladder) are accepted and ignored: the benchmark's build parameters
        still pass them.  A build is not resumable — a killed one starts
        again from zero, and an ambient deadline does not reach it: it
        stores exact distances only.
        """
        require_positive(num_vantage_points, "num_vantage_points")
        require(len(database) > 0, "cannot index an empty database")
        rng = ensure_rng(seed)
        engine = DistanceEngine.of(distance, database.graphs)
        if validate_metric:
            _spot_check_metric(database, engine, rng)

        started = time.perf_counter()
        with unbudgeted(), obs.span(
            "index.build", n=len(database),
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
        build_seconds = time.perf_counter() - started
        obs.observe_time("index.build_seconds", build_seconds)
        return cls(
            database, engine, embedding=embedding, build_seconds=build_seconds
        )

    @classmethod
    def from_coords(
        cls,
        database: GraphDatabase,
        distance: GraphDistanceFn,
        vantage_indices,
        coords: np.ndarray,
    ) -> "NBIndex":
        """An index over vantage coordinates that already exist, at no
        distance cost — ``coords`` are rows of a bundle's one
        :class:`~repro.index.vantage.VantageFrame` and ``vantage_indices``
        the frame's global ids: all of them for the index a loaded bundle
        serves (:class:`~repro.shard.ShardedIndex`), one shard's members'
        for the artifact :func:`~repro.shard.build.write_shard` saves.  The
        embedding is :attr:`~repro.index.vantage.VantageEmbedding.framed`,
        so the index refuses the in-place :meth:`insert`, and it gets an
        engine of its own over ``database``'s ids."""
        started = time.perf_counter()
        engine = DistanceEngine(distance, graphs=database.graphs)
        embedding = VantageEmbedding.from_coords(
            database.graphs, vantage_indices, engine, coords
        )
        embedding.framed = True
        return cls(
            database, engine, embedding=embedding,
            build_seconds=time.perf_counter() - started,
        )

    def stats(self) -> dict:
        """Statable protocol: one plain dict covering the whole index,
        nesting the engine's accounting."""
        return {
            "num_graphs": len(self.database),
            "num_shards": 1,  # normalized schema: a plain index is S=1
            "num_vantage_points": self.embedding.num_vantage_points,
            "build_seconds": self.build_seconds,
            "distance_calls": self.engine.calls,
            "memory_bytes": self._memory_bytes(),
            "coverage_bytes": self._coverage_bytes(),
            "engine": self.engine.stats(),
        }

    def _memory_bytes(self) -> int:
        """Resident size of the index structures (Fig. 6(l)): the
        vantage-coordinate matrix."""
        return self.embedding.coords.nbytes

    def _coverage_bytes(self) -> int:
        """Upper bound on the packed coverage state of a worst-case session.

        A query keeps the running covered bitset and at most one resolved
        residual-neighborhood row per relevant member, all over a universe
        of at most ``|DB|`` ids, and ``|L_q| ≤ |DB|``.  This is the
        footprint the bitset kernel trades against per-id frozensets (~60
        bytes per stored id); ``bench_fig6l_index_memory`` reports both.
        """
        words = bitset_kernel.num_words(len(self.database))
        return (len(self.database) + 1) * words * 8

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

    def _member_state(self, session: "QuerySession") -> MemberState:
        """The session's state for this index's members: the graphs its
        embedding covers, identity ids (a mutable deployment's live
        database grows past them)."""
        return session.cached(0, lambda: MemberState(
            self, np.arange(len(self.embedding)), session.relevant,
            session.universe,
        ))

    def _run_query(self, run: "QueryRun"):
        """One index frontier: the S = 1 case of the coordinated greedy."""
        frontier = IndexFrontier(
            self._member_state(run.session), run.theta, run.stats,
            run.runtime,
        )
        return run.greedy([frontier], lambda gid: frontier)

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

        The new graph is embedded against the vantage points (``|V|``
        distances) — the whole of the index's per-graph state.  Open
        sessions are invalidated — start a new session after inserting.
        """
        if self.embedding.framed:
            # Its vantage graphs live in the bundle's frame, not here.
            raise ReadOnlyIndexError("insert", "NBIndex (a bundle's shard)")
        new_id = self.database.append(graph, feature_row)
        graph = self.database[new_id]
        # A stored coordinate must be exact.
        with unbudgeted():
            self.embedding.append_graph(graph)
        return new_id

    def __repr__(self) -> str:
        return (
            f"<NBIndex n={len(self.database)} "
            f"|V|={self.embedding.num_vantage_points}>"
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
_QUERY_KWARGS = frozenset({"stop_on_zero_gain", "deadline"})


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
    stats: QueryStats
    #: The query's :class:`~repro.cascade.FilterCascade`: the filter
    #: counters, shared by every frontier.
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
    :class:`~repro.index.frontier.MemberState` per index or shard, built
    lazily by the first :meth:`query`, with its per-θ π̂ columns) —
    everything that survives a θ refinement.

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
    def pi_hat_column(self, theta: float) -> np.ndarray:
        """π̂ counts (|N̂| over L_q) for every relevant graph at θ."""
        return self.index._member_state(self).pi_hat_column(theta)

    # -- the top-k query -----------------------------------------------
    def query(
        self,
        theta: float,
        k: int,
        stop_on_zero_gain: bool = False,
        deadline=None,
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

        Which bounds filter candidates is decided by the index's metric,
        not by the caller (``docs/cascade.md``).
        """
        require_positive(theta, "theta")
        require_positive(k, "k")
        from repro.resilience.deadline import current_deadline, deadline_scope

        runtime = FilterCascade()
        index = self.index
        layer = index._query_layer
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
                self, theta, stats, runtime,
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
        return certify(QueryResult(
            answer=answer,
            gains=gains,
            covered=self.universe.decode_frozenset(covered),
            num_relevant=int(self.relevant.size),
            theta=theta,
            stats=stats,
        ), k)

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
