"""The batch distance engine.

:class:`DistanceEngine` is the single component every distance-hungry code
path goes through: index construction (``|V| · n`` vantage distances),
the baseline greedy's O(|L_q|²) neighborhood
materialization, candidate verification, and full ``matrix`` builds.  It
layers three cross-cutting accelerations over any ``(g, g) → float``
metric, none of which changes a single output bit:

1. **Batching** — :meth:`one_to_many`, :meth:`pairs` and :meth:`matrix`
   evaluate whole blocks at once.  Two metrics have a vectorized
   evaluator (:func:`batch_evaluator_for`): the star metric
   (:mod:`repro.engine.starbatch`) amortizes the per-pair setup, and a
   vector metric (a :class:`~repro.metricspace.PayloadDistance` over a
   :class:`~repro.metricspace.MinkowskiMetric`) evaluates a batch as one
   numpy block over its payload matrix.  Queries evaluate in the calling
   process; the build's vantage block (:meth:`columns`) is spread over
   the usable CPUs.
2. **Lipschitz prefiltering** — with a :class:`VantageEmbedding` attached,
   :meth:`within` answers threshold queries from the coordinate matrix
   first: candidates whose vantage lower bound exceeds θ are rejected and
   candidates whose vantage upper bound is within θ are accepted, both
   without paying for a real edit distance (Theorem 4 both ways).
3. **Shared caching** — one symmetric pair cache
   (:class:`~repro.engine.paircache.PairTable`: packed keys of
   ``graph_id`` or a never-reused token, in flat arrays) spans every
   consumer, so a distance one query evaluates is free for the next
   θ-refinement.  The build's vantage block reads the cache but is not
   stored in it: the embedding holds those distances, and its bounds on a
   pair with a vantage endpoint are exact.  Nor is a value a query's
   deadline degraded to an upper bound: it is returned to that query only.
   :meth:`stats` reports evaluations / hits / prefilter activity in the
   same shape as :class:`~repro.ged.metric.CountingDistance`.

Every structure that takes a *distance* — the index, the baseline trees,
the pair samplers — accepts a plain metric or an engine and coerces it
with :meth:`DistanceEngine.of`, the one place that asks "is this already
an engine?".  A callable with no batch evaluator (e.g. ``lambda a, b:
star(a, b)``, or a ``CountingDistance`` around either batched metric) is
evaluated pair by pair *through the same batch entry points*, which is
how the identity gates compare the serial metric with the batch kernels.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from repro import obs
from repro.cascade.features import StageFeatures
from repro.cascade.pipeline import RefereeFilter
from repro.ged import ExactGED, StarDistance
from repro.engine.paircache import (
    PairTable, Uncacheable, half, halves, pair_key, plain_ids,
)
from repro.ged.metric import SLACK, CountingDistance
from repro.graphs.graph import LabeledGraph
from repro.resilience.deadline import current_deadline, degradation_mark
from repro.utils.fanout import fan_out
from repro.utils.validation import require


def unwrap_distance(distance):
    """Strip :class:`CountingDistance` layers."""
    while isinstance(distance, CountingDistance):
        distance = distance.inner
    return distance


def batch_evaluator_for(distance):
    """A batch fast path for ``distance``, or ``None`` if it has none.

    A bare :class:`StarDistance` gets a
    :class:`~repro.engine.starbatch.BatchStarEvaluator`; a bare
    :class:`~repro.metricspace.PayloadDistance` whose metric has a batch
    form (:class:`~repro.metricspace.MinkowskiMetric`) gets its
    :meth:`~repro.metricspace.PayloadDistance.batch_evaluator`.  Every
    other callable — a :class:`CountingDistance` around either included,
    whose count would otherwise read 0 — is evaluated pair by pair.
    """
    from repro.metricspace.generic import PayloadDistance

    if type(distance) is StarDistance:
        from repro.engine.starbatch import BatchStarEvaluator

        return BatchStarEvaluator(normalized=distance.normalized)
    if type(distance) is PayloadDistance:
        return distance.batch_evaluator()
    return None


def _runs(pairlist):
    """``(start, stop)`` of each run of consecutive pairs sharing a left
    graph (a matrix row): one pair-cache row, one evaluator batch."""
    start, count = 0, len(pairlist)
    while start < count:
        left, stop = pairlist[start][0], start + 1
        while stop < count and pairlist[stop][0] is left:
            stop += 1
        yield start, stop
        start = stop


class DistanceEngine:
    """Batched, prefiltered, cached distance evaluation over a metric.

    Parameters
    ----------
    distance:
        The underlying metric ``(LabeledGraph, LabeledGraph) → float``.
    graphs:
        Optional graph list (usually ``database.graphs``).  Integer
        arguments to the batch methods then index into it.
    embedding:
        Optional :class:`~repro.index.vantage.VantageEmbedding` over
        ``graphs`` enabling the :meth:`within` prefilter; attach later via
        :meth:`attach_embedding` once built.
    """

    def __init__(
        self,
        distance,
        *,
        graphs: Sequence[LabeledGraph] | None = None,
        embedding=None,
    ):
        self.inner = distance
        self._graphs = graphs  # live reference: inserts stay visible
        self._embedding = embedding
        self._base_distance = unwrap_distance(distance)
        self._evaluator = batch_evaluator_for(distance)
        self._referee = RefereeFilter()
        self._features = None
        self._stage_features = None
        #: How many leading attached graphs are known to have no edge.
        self._edgeless = 0
        self._cache = PairTable()
        # The pair cache and its counters are shared across every consumer,
        # including the query service's worker threads; the lock covers the
        # scan/write-back phases only — real distance evaluation runs
        # outside it, so concurrent batches still overlap.  Two threads
        # missing on the same key may both evaluate it; the metric is
        # deterministic, so the duplicate write is idempotent.
        self._cache_lock = threading.RLock()
        self.reset()

    @classmethod
    def of(cls, distance, graphs=None) -> "DistanceEngine":
        """``distance`` as an engine: an engine comes back unchanged (its
        cache and counters are shared with the caller), any other callable
        is wrapped in a fresh one over ``graphs``."""
        if isinstance(distance, cls):
            return distance
        return cls(distance, graphs=graphs)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero the counters (the cache itself is kept)."""
        self.evaluations = 0
        self.cache_hits = 0
        self.batches = 0
        self.prefilter_lower_rejections = 0
        self.prefilter_upper_accepts = 0

    @property
    def calls(self) -> int:
        """Distinct evaluations — drop-in for ``CountingDistance.calls``."""
        return self.evaluations

    def stats(self) -> dict:
        """Counters in the same shape as ``CountingDistance.stats()``."""
        lookups = self.cache_hits + self.evaluations
        return {
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.evaluations,
            "hit_rate": self.cache_hits / lookups if lookups else 0.0,
            "cache_size": len(self._cache),
            "batches": self.batches,
            "prefilter_lower_rejections": self.prefilter_lower_rejections,
            "prefilter_upper_accepts": self.prefilter_upper_accepts,
        }

    @property
    def graphs(self):
        """The attached graph list (live reference), or ``None``."""
        return self._graphs

    def attach_embedding(self, embedding) -> None:
        """Enable vantage prefiltering (coords rows must match ``graphs``)."""
        self._embedding = embedding

    def __repr__(self) -> str:
        return (
            f"DistanceEngine(evaluations={self.evaluations}, "
            f"cache={len(self._cache)})"
        )

    # ------------------------------------------------------------------
    # Reference resolution
    # ------------------------------------------------------------------
    def _resolve(self, ref) -> LabeledGraph:
        if isinstance(ref, (int, np.integer)):
            require(
                self._graphs is not None,
                "integer graph references require an attached graph list",
            )
            return self._graphs[int(ref)]
        return ref

    # ------------------------------------------------------------------
    # Single-pair path (GraphDistanceFn protocol)
    # ------------------------------------------------------------------
    def __call__(self, g1, g2) -> float:
        a, b = self._resolve(g1), self._resolve(g2)
        try:
            key = pair_key(half(a), half(b))
        except Uncacheable:
            return float(self.one_to_many(a, [b])[0])
        with self._cache_lock:
            value = self._cache.get(key)
            if value is not None:
                self.cache_hits += 1
            else:
                self.evaluations += 1
        if value is not None:
            obs.counter("engine.cache_hits")
            return value
        obs.counter("engine.evaluations")
        mark = degradation_mark()
        if self._evaluator is not None:
            value = float(self._evaluator.one_to_many(a, [b])[0])
        else:
            value = float(self.inner(a, b))
        with self._cache_lock:
            self._cache_for(mark).put([key], [value])
        return value

    # ------------------------------------------------------------------
    # Batch evaluation
    # ------------------------------------------------------------------
    def _resolve_many(self, targets) -> list:
        """The graphs of a target block.  An integer id *array* indexes
        the attached graph list directly — no per-element type dispatch;
        any other iterable may mix ids and graphs."""
        if isinstance(targets, np.ndarray):
            require(
                self._graphs is not None,
                "integer graph references require an attached graph list",
            )
            graphs = self._graphs
            return [graphs[ref] for ref in targets.tolist()]
        return [self._resolve(ref) for ref in targets]

    def _halves(self, targets) -> list[int]:
        """The pair-key halves of a target block, not resolved to graphs
        when every graph of an id array has its ``graph_id``."""
        if isinstance(targets, np.ndarray) and self._graphs is not None:
            graphs = self._graphs
            ids = [graphs[ref].graph_id for ref in targets.tolist()]
            if plain_ids(ids):
                return ids
        return halves(self._resolve_many(targets))

    def one_to_many(self, source, targets) -> np.ndarray:
        """``d(source, t)`` for every target, cache-aware, one batch."""
        graphs = self._resolve_many(targets)
        out = np.empty(len(graphs), dtype=np.float64)
        if not graphs:
            return out
        source_graph = self._resolve(source)
        try:
            source_half, target_halves = half(source_graph), halves(graphs)
        except Uncacheable:  # evaluated uncached
            self._book_batch(len(graphs))
            out[:] = self._evaluate(source_graph, graphs)
            return out
        hits, misses, keys, repeats = self._scan(source_half, target_halves, out)
        if misses:
            self._book_batch(len(misses))
            mark = degradation_mark()
            values = self._evaluate(source_graph, [graphs[p] for p in misses])
            out[misses] = values
            with self._cache_lock:
                self._cache_for(mark).put(keys, values)
            for position, first in repeats:
                out[position] = out[first]
        if hits:
            obs.counter("engine.cache_hits", hits)
        return out

    def columns(self, sources, targets) -> np.ndarray:
        """``d(sources[j], targets[i])`` at ``[i, j]`` (the vantage block),
        booked as consecutive :meth:`one_to_many` calls book it but stored
        nowhere: the embedding holds it.  Each column reads the cache once;
        a pair met earlier in the block is a hit copied from its first
        place.  The misses are evaluated by :func:`fan_out` unless a
        deadline is active (a child could not report its degradations) or
        the metric is not :attr:`portable`."""
        graphs = self._resolve_many(targets)
        sources = [self._resolve(ref) for ref in sources]
        out = np.empty((len(graphs), len(sources)))
        try:
            source_halves, target_halves = halves(sources), halves(graphs)
        except Uncacheable:  # evaluated uncached, as one_to_many would
            for column, source in enumerate(sources):
                self._book_batch(len(graphs))
                out[:, column] = self._evaluate(source, graphs)
            return out
        # A pair recurs only at a repeated source or target half, or with
        # its halves swapped (a target half that is a source half): each
        # half's first row and column place its first occurrence.
        first_row = {h: row for row, h in reversed(list(enumerate(target_halves)))}
        first_column = {h: j for j, h in reversed(list(enumerate(source_halves)))}
        copies, todo = [], []  # copies: ([i, j] to, [i, j] from)
        for column, source_half in enumerate(source_halves):
            earlier = first_column[source_half]
            if earlier < column:  # a repeated source: all its column again
                copies.append(((slice(None), column), (slice(None), earlier)))
                continue
            with self._cache_lock:
                absent, _ = self._cache.scan(source_half, target_halves, out[:, column])
            source_row, misses = first_row.get(source_half), []
            for row in absent:
                target_half = target_halves[row]
                as_source = first_column.get(target_half, column)
                if first_row[target_half] < row:  # a repeated target
                    copies.append(((row, column), (first_row[target_half], column)))
                elif as_source < column and source_row is not None:  # swapped
                    copies.append(((row, column), (source_row, as_source)))
                else:
                    misses.append(row)
            if misses:
                todo.append((column, np.array(misses, dtype=np.int32)))
        pairs = sum(misses.size for _, misses in todo)
        hits = out.size - pairs  # every pair not evaluated here
        with self._cache_lock:
            self.cache_hits += hits
        if hits:
            obs.counter("engine.cache_hits", hits)

        def evaluate(job):
            column, misses = job
            return self._evaluate(sources[column], [graphs[p] for p in misses.tolist()])

        if self.portable and current_deadline() is None:
            values = fan_out(evaluate, todo, pairs)
        else:
            values = map(evaluate, todo)  # one column's values at a time
        for (column, misses), column_values in zip(todo, values):
            self._book_batch(misses.size)
            out[misses, column] = column_values
        for to, source in copies:  # in block order: each source is filled
            out[to] = out[source]
        return out

    @property
    def portable(self) -> bool:
        """Whether build work may evaluate the metric in a forked child
        (:func:`~repro.utils.fanout.fan_out`): a bare :class:`StarDistance`
        or :class:`ExactGED`.  A child would lose a ``CountingDistance``'s
        count or any other callable's side effects."""
        return type(self.inner) in (StarDistance, ExactGED)

    def _scan(self, source_half, target_halves, out):
        """One source's pair-cache scan: fills ``out`` from the cache and
        books the hits.  A key missed earlier in the scan is a hit too, a
        *repeat* copied from that miss's place once it is filled.  Returns
        ``(hits, miss positions, miss keys, [(repeat, its miss)])``."""
        misses, miss_keys, repeats, pending = [], [], [], {}
        with self._cache_lock:
            absent = self._cache.scan(source_half, target_halves, out)
            for position, key in zip(*absent):
                first = pending.setdefault(key, position)
                if first != position:
                    repeats.append((position, first))
                else:
                    misses.append(position)
                    miss_keys.append(key)
            hits = len(target_halves) - len(misses)
            self.cache_hits += hits
        return hits, misses, miss_keys, repeats

    def _cache_for(self, mark) -> PairTable:
        """Where evaluations made since ``mark`` may be stored: the pair
        cache, or a throw-away table once the active deadline has degraded
        one of them to an upper bound."""
        return self._cache if degradation_mark() == mark else PairTable()

    def cached_verdicts(self, source, targets, threshold: float) -> np.ndarray:
        """Pair-cache peek: ``+1`` where ``d(source, t)`` has already been
        evaluated and is ``<= threshold``, ``-1`` where it is ``>
        threshold``, ``0`` where it was never evaluated.  Evaluates
        nothing; only the pairs it decides count as cache hits."""
        try:
            source_half, others = half(self._resolve(source)), self._halves(targets)
        except Uncacheable:  # never cached
            return np.zeros(len(targets), dtype=np.int8)
        with self._cache_lock:
            values = self._cache.values(source_half, others)
            # A never-evaluated pair reads NaN, which fails both tests.
            verdicts = (
                (values <= threshold).view(np.int8)
                - (values > threshold).view(np.int8)
            )
            hits = int(np.count_nonzero(verdicts))
            self.cache_hits += hits
        if hits:
            obs.counter("engine.cache_hits", hits)
        return verdicts

    def pairs(self, pairlist) -> np.ndarray:
        """Distances for an explicit ``[(a, b), ...]`` list of pairs."""
        pairlist = [(self._resolve(a), self._resolve(b)) for a, b in pairlist]
        out = np.empty(len(pairlist), dtype=np.float64)
        try:
            rows = [
                (start, half(pairlist[start][0]),
                 halves([b for _, b in pairlist[start:stop]]))
                for start, stop in _runs(pairlist)
            ]
        except Uncacheable:
            out[:] = self._evaluate_pairs(pairlist)
            return out
        spots: dict[int, list[int]] = {}  # a missed key -> its positions
        with self._cache_lock:
            for start, source_half, others in rows:
                absent = self._cache.scan(
                    source_half, others, out[start:start + len(others)]
                )
                for position, key in zip(*absent):
                    spots.setdefault(key, []).append(start + position)
            hits = len(pairlist) - len(spots)
            self.cache_hits += hits
        if spots:
            mark = degradation_mark()
            values = self._evaluate_pairs(
                [pairlist[positions[0]] for positions in spots.values()]
            )
            with self._cache_lock:
                self._cache_for(mark).put(list(spots), values)
            for positions, value in zip(spots.values(), values):
                out[positions] = value
        if hits:
            obs.counter("engine.cache_hits", hits)
        return out

    def matrix(self, items=None) -> np.ndarray:
        """Full symmetric pairwise matrix (zero diagonal) over ``items``
        (graphs or indices; default: the whole attached graph list)."""
        if items is None:
            require(self._graphs is not None, "matrix() needs attached graphs")
            items = range(len(self._graphs))
        refs = list(items)
        upper = np.triu_indices(len(refs), 1)
        matrix = np.zeros((len(refs), len(refs)))
        matrix[upper] = matrix.T[upper] = self.pairs(
            [(refs[i], refs[j]) for i, j in zip(*(side.tolist() for side in upper))]
        )
        return matrix

    def within(
        self,
        source,
        targets,
        theta: float,
        eps: float = SLACK,
        *,
        runtime=None,
        prefiltered: bool = False,
    ) -> np.ndarray:
        """Boolean mask: which targets satisfy ``d(source, t) ≤ θ + eps``.

        The threshold test runs through :meth:`repro.cascade.FilterCascade.run`.
        A query passes its own ``runtime`` (its counters; on a unit-cost
        ``ExactGED`` engine it adds the assignment lower bound).
        Without one — ``baseline_greedy(engine=…)``, referees — the
        engine-held :class:`~repro.cascade.pipeline.RefereeFilter` runs:
        with an embedding attached and index references, the vantage lower
        bound rejects and the vantage upper bound accepts without real
        evaluations, and only the undecided band pays for edit distances.

        ``targets`` may be an integer id *array*: it then reaches the
        bounds, the pair cache and the kernel without per-element type
        dispatch.

        ``prefiltered=True`` tells the filter the caller already ran the
        vantage sandwich over these targets at this threshold and passes
        only what it left undecided (a frontier's window does), so the
        vantage step — which would prune and accept nothing — is skipped.
        """
        if not isinstance(targets, np.ndarray):
            targets = list(targets)
        if runtime is None:
            runtime = self._referee
        return runtime.run(
            self, source, targets, theta, eps, prefiltered=prefiltered
        )

    def stage_features(self):
        """The assignment filter's handle on :meth:`_profiles`; ``None``
        in :attr:`_stage_features` until the filter first asks, so an
        engine that never filters by it shows none set up."""
        self._stage_features = self._profiles()
        return self._stage_features

    def profile_gap(self, source, targets) -> np.ndarray | None:
        """The label-histogram + sorted-degree gap between ``source`` and
        each target (:meth:`StageFeatures.assignment_lb`, ids into the
        attached graphs); evaluates no distance.

        ``None`` while no attached graph has an edge: a vector or payload
        database's one-node graphs carry a name, not structure, and their
        gap could rank by nothing but label identity.  The graphs decide,
        not the metric's type, so an engine over a serial callable ranks
        like one over the batch kernel of the same metric."""
        with self._cache_lock:  # a concurrent sync swaps the matrices
            graphs = self._graphs or ()
            edgeless = self._edgeless
            while edgeless < len(graphs) and not graphs[edgeless].num_edges:
                edgeless += 1
            self._edgeless = edgeless
            if edgeless == len(graphs):
                return None
            return self._profiles().assignment_lb(source, targets)

    def _profiles(self) -> StageFeatures:
        """The per-graph profiles over the attached graphs, built on first
        use and extended when the graph list has grown (live inserts)."""
        require(
            self._graphs is not None,
            "stage features require an attached graph list",
        )
        with self._cache_lock:
            if self._features is None:
                self._features = StageFeatures()
            self._features.sync(self._graphs)
            return self._features

    # ------------------------------------------------------------------
    # Evaluation backends
    # ------------------------------------------------------------------
    def _book_batch(self, count: int) -> None:
        with self._cache_lock:
            self.batches += 1
            self.evaluations += count
        obs.counter("engine.batches")
        obs.counter("engine.evaluations", count)
        obs.histogram("engine.batch_size", count)

    def _evaluate(self, source, graphs):
        """``d(source, g)`` for every ``g``; books nothing."""
        if self._evaluator is not None:
            return self._evaluator.one_to_many(source, graphs)
        return [float(self.inner(source, graph)) for graph in graphs]

    def _evaluate_pairs(self, misses):
        self._book_batch(len(misses))
        out: list[float] = []
        for start, stop in _runs(misses):
            rights = [right for _, right in misses[start:stop]]
            out.extend(self._evaluate(misses[start][0], rights))
        return out
