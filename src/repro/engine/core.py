"""The batch distance engine.

:class:`DistanceEngine` is the single component every distance-hungry code
path goes through: index construction (``|V| · n`` vantage distances,
NB-Tree pivot scans), the baseline greedy's O(|L_q|²) neighborhood
materialization, candidate verification, and full ``matrix`` builds.  It
layers three cross-cutting accelerations over any ``(g, g) → float``
metric, none of which changes a single output bit:

1. **Batching** — :meth:`one_to_many`, :meth:`pairs` and :meth:`matrix`
   evaluate whole blocks at once.  For the star metric an in-process
   vectorized evaluator (:mod:`repro.engine.starbatch`) amortizes the
   per-pair setup; for ``workers > 1`` the blocks additionally fan out
   over a lazily created ``multiprocessing`` pool in deterministic,
   order-preserving chunks.  ``workers=1`` (the default) never touches
   process machinery — the serial fallback is always available.
2. **Lipschitz prefiltering** — with a :class:`VantageEmbedding` attached,
   :meth:`within` answers threshold queries from the coordinate matrix
   first: candidates whose vantage lower bound exceeds θ are rejected and
   candidates whose vantage upper bound is within θ are accepted, both
   without paying for a real edit distance (Theorem 4 both ways).
3. **Shared caching** — a symmetric pair cache (same keying as
   :class:`~repro.ged.metric.CachingDistance`) spans every consumer, so a
   distance computed during the tree build is free during θ-refinements.
   :meth:`stats` reports evaluations / hits / prefilter activity in the
   same shape as the counting wrappers, and the engine itself is a plain
   ``GraphDistanceFn`` so it can slot in anywhere a distance is expected.

Worker count resolution: an explicit ``workers`` argument wins, then the
``REPRO_ENGINE_WORKERS`` environment variable, then serial.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Sequence

import numpy as np

from repro import obs
from repro.cascade.features import StageFeatures
from repro.cascade.pipeline import RefereeFilter
from repro.ged.metric import _pair_key
from repro.graphs.graph import LabeledGraph
from repro.resilience.deadline import current_deadline
from repro.resilience.retry import RetryPolicy
from repro.utils.validation import require

_EPS = 1e-9

#: Below this many pending evaluations a parallel engine stays in-process:
#: pool latency would dominate the chunk compute time.
DEFAULT_PARALLEL_THRESHOLD = 16


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument > ``REPRO_ENGINE_WORKERS`` env var > serial."""
    if workers is None:
        env = os.environ.get("REPRO_ENGINE_WORKERS", "").strip()
        if env:
            require(
                env.lstrip("+-").isdigit(),
                f"REPRO_ENGINE_WORKERS must be an integer, got {env!r}",
            )
        workers = int(env) if env else 1
    workers = int(workers)
    require(workers >= 1, f"workers must be >= 1, got {workers}")
    return workers


class DistanceEngine:
    """Batched, prefiltered, cached distance evaluation over a metric.

    Parameters
    ----------
    distance:
        The underlying metric ``(LabeledGraph, LabeledGraph) → float``.
    workers:
        Process count for batch fan-out; ``None`` reads
        ``REPRO_ENGINE_WORKERS`` and defaults to 1 (serial, no pool ever
        created).  Results are identical for every worker count.
    chunk_size:
        Pairs per worker task; ``None`` sizes chunks to ~4 tasks/worker.
    graphs:
        Optional graph list (usually ``database.graphs``).  Integer
        arguments to the batch methods then index into it, and worker
        payloads ship indices instead of pickled graphs.
    embedding:
        Optional :class:`~repro.index.vantage.VantageEmbedding` over
        ``graphs`` enabling the :meth:`within` prefilter; attach later via
        :meth:`attach_embedding` once built.
    respect_cpu_count:
        When true (the default) the pool is sized to
        ``min(workers, os.cpu_count())`` — extra processes beyond the
        machine's cores only add dispatch overhead, so on a single-core
        host any ``workers`` value degrades to the in-process fast path.
        Tests that must exercise the pool regardless pass ``False``.
    retry_policy:
        :class:`~repro.resilience.RetryPolicy` governing pool recovery
        when a worker dies mid-batch: the pool is respawned and the batch
        retried with capped exponential backoff, then evaluated serially
        in-process once attempts are exhausted.  Results are bit-identical
        on every path.
    """

    def __init__(
        self,
        distance,
        *,
        workers: int | None = None,
        chunk_size: int | None = None,
        graphs: Sequence[LabeledGraph] | None = None,
        embedding=None,
        parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD,
        respect_cpu_count: bool = True,
        retry_policy: RetryPolicy | None = None,
    ):
        from repro.engine.starbatch import batch_evaluator_for, unwrap_distance

        self.inner = distance
        self.workers = resolve_workers(workers)
        self.pool_workers = (
            min(self.workers, os.cpu_count() or 1)
            if respect_cpu_count else self.workers
        )
        self.chunk_size = chunk_size
        self.parallel_threshold = max(1, int(parallel_threshold))
        self._graphs = graphs  # live reference: inserts stay visible
        self._embedding = embedding
        self._base_distance = unwrap_distance(distance)
        self._evaluator = batch_evaluator_for(distance)
        self._pool = None
        self._pool_observed = False
        self._referee = RefereeFilter()
        self._stage_features = None
        self._cache: dict[tuple, float] = {}
        # The pair cache and its counters are shared across every consumer,
        # including the query service's worker threads; the lock covers the
        # scan/write-back phases only — real distance evaluation runs
        # outside it, so concurrent batches still overlap.  Two threads
        # missing on the same key may both evaluate it; the metric is
        # deterministic, so the duplicate write is idempotent.
        self._cache_lock = threading.RLock()
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.reset()

    # ------------------------------------------------------------------
    # Stats & lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero the counters (the cache itself is kept)."""
        self.evaluations = 0
        self.cache_hits = 0
        self.batches = 0
        self.parallel_batches = 0
        self.prefilter_lower_rejections = 0
        self.prefilter_upper_accepts = 0
        self.pool_retries = 0
        self.pool_respawns = 0
        self.pool_serial_fallbacks = 0

    @property
    def calls(self) -> int:
        """Distinct evaluations — drop-in for ``CountingDistance.calls``."""
        return self.evaluations

    def stats(self) -> dict:
        """Counters in the same shape as the counting/caching wrappers."""
        lookups = self.cache_hits + self.evaluations
        return {
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.evaluations,
            "hit_rate": self.cache_hits / lookups if lookups else 0.0,
            "cache_size": len(self._cache),
            "batches": self.batches,
            "parallel_batches": self.parallel_batches,
            "prefilter_lower_rejections": self.prefilter_lower_rejections,
            "prefilter_upper_accepts": self.prefilter_upper_accepts,
            "workers": self.workers,
            "pool_workers": self.pool_workers,
            "pool_retries": self.pool_retries,
            "pool_respawns": self.pool_respawns,
            "pool_serial_fallbacks": self.pool_serial_fallbacks,
        }

    @property
    def graphs(self):
        """The attached graph list (live reference), or ``None``."""
        return self._graphs

    def attach_embedding(self, embedding) -> None:
        """Enable vantage prefiltering (coords rows must match ``graphs``)."""
        self._embedding = embedding

    def invalidate_pool(self) -> None:
        """Tear down the worker pool (e.g. after the graph list grew);
        the next parallel batch rebuilds it against the current graphs."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    close = invalidate_pool

    def __enter__(self) -> "DistanceEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter shutdown ordering
        try:
            self.invalidate_pool()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"DistanceEngine(workers={self.workers}, "
            f"evaluations={self.evaluations}, cache={len(self._cache)})"
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

    @staticmethod
    def _encode(ref):
        """Payload form of a graph reference: plain int or the graph."""
        if isinstance(ref, (int, np.integer)):
            return int(ref)
        return ref

    # ------------------------------------------------------------------
    # Single-pair path (GraphDistanceFn protocol)
    # ------------------------------------------------------------------
    def __call__(self, g1, g2) -> float:
        a, b = self._resolve(g1), self._resolve(g2)
        key = _pair_key(a, b)
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
        if self._evaluator is not None:
            value = float(self._evaluator.one_to_many(a, [b])[0])
        else:
            value = float(self.inner(a, b))
        with self._cache_lock:
            self._cache[key] = value
        return value

    # ------------------------------------------------------------------
    # Batch evaluation
    # ------------------------------------------------------------------
    def _resolve_many(self, targets) -> tuple[list, list]:
        """``(refs, graphs)`` of a target block.  An integer id *array*
        indexes the attached graph list directly — no per-element type
        dispatch; any other iterable may mix ids and graphs."""
        if isinstance(targets, np.ndarray):
            require(
                self._graphs is not None,
                "integer graph references require an attached graph list",
            )
            refs = targets.tolist()
            graphs = self._graphs
            return refs, [graphs[ref] for ref in refs]
        refs = list(targets)
        return refs, [self._resolve(ref) for ref in refs]

    def one_to_many(self, source, targets) -> np.ndarray:
        """``d(source, t)`` for every target, cache-aware, one batch."""
        refs, graphs = self._resolve_many(targets)
        out = np.empty(len(refs), dtype=np.float64)
        if not refs:
            return out
        source_graph = self._resolve(source)
        miss_positions: dict[tuple, list[int]] = {}
        miss_refs: list = []
        hits = 0
        with self._cache_lock:
            cache = self._cache
            for position, graph in enumerate(graphs):
                key = _pair_key(source_graph, graph)
                value = cache.get(key)
                if value is not None:
                    hits += 1
                    out[position] = value
                elif key in miss_positions:
                    hits += 1  # duplicate within the batch
                    miss_positions[key].append(position)
                else:
                    miss_positions[key] = [position]
                    miss_refs.append((refs[position], graph))
            self.cache_hits += hits
        if miss_refs:
            values = self._evaluate_one_to_many(source, source_graph, miss_refs)
            with self._cache_lock:
                for (key, positions), value in zip(miss_positions.items(), values):
                    value = float(value)
                    self._cache[key] = value
                    for position in positions:
                        out[position] = value
        if hits:
            obs.counter("engine.cache_hits", hits)
        return out

    def cached_verdicts(
        self, source, targets, accept: float, reject: float
    ) -> np.ndarray:
        """Pair-cache peek: ``+1`` where ``d(source, t)`` has already been
        evaluated and is ``<= accept``, ``-1`` where it is ``> reject``,
        ``0`` elsewhere (never evaluated, or in between).  Evaluates
        nothing; only the pairs it decides count as cache hits — an
        undecided pair is booked by the call that later resolves it."""
        _, graphs = self._resolve_many(targets)
        out = np.zeros(len(graphs), dtype=np.int8)
        source_graph = self._resolve(source)
        with self._cache_lock:
            cache = self._cache
            for position, graph in enumerate(graphs):
                value = cache.get(_pair_key(source_graph, graph))
                if value is not None:
                    out[position] = (value <= accept) - (value > reject)
            hits = int(np.count_nonzero(out))
            self.cache_hits += hits
        if hits:
            obs.counter("engine.cache_hits", hits)
        return out

    def pairs(self, pairlist) -> np.ndarray:
        """Distances for an explicit ``[(a, b), ...]`` list of pairs."""
        pairlist = list(pairlist)
        out = np.empty(len(pairlist), dtype=np.float64)
        miss_positions: dict[tuple, list[int]] = {}
        miss_refs: list = []
        hits = 0
        with self._cache_lock:
            for position, (ref_a, ref_b) in enumerate(pairlist):
                a, b = self._resolve(ref_a), self._resolve(ref_b)
                key = _pair_key(a, b)
                value = self._cache.get(key)
                if value is not None:
                    hits += 1
                    out[position] = value
                elif key in miss_positions:
                    hits += 1
                    miss_positions[key].append(position)
                else:
                    miss_positions[key] = [position]
                    miss_refs.append(((ref_a, a), (ref_b, b)))
            self.cache_hits += hits
        if miss_refs:
            values = self._evaluate_pairs(miss_refs)
            with self._cache_lock:
                for (key, positions), value in zip(miss_positions.items(), values):
                    value = float(value)
                    self._cache[key] = value
                    for position in positions:
                        out[position] = value
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
        n = len(refs)
        matrix = np.zeros((n, n))
        pairlist = [
            (refs[i], refs[j]) for i in range(n) for j in range(i + 1, n)
        ]
        values = self.pairs(pairlist)
        position = 0
        for i in range(n):
            for j in range(i + 1, n):
                matrix[i, j] = matrix[j, i] = values[position]
                position += 1
        return matrix

    def within(
        self,
        source,
        targets,
        theta: float,
        eps: float = _EPS,
        *,
        runtime=None,
        prefiltered: bool = False,
    ) -> np.ndarray:
        """Boolean mask: which targets satisfy ``d(source, t) ≤ θ + eps``.

        The threshold test runs through :meth:`repro.cascade.FilterCascade.run`.
        A query passes its own ``runtime`` (its ε and counters; on a
        unit-cost ``ExactGED`` engine it adds the assignment lower bound).
        Without one — ``baseline_greedy(engine=…)``, referees — the
        engine-held :class:`~repro.cascade.pipeline.RefereeFilter` runs:
        with an embedding attached and index references, the vantage lower
        bound rejects and the vantage upper bound accepts without real
        evaluations, and only the undecided band pays for edit distances.

        ``targets`` may be an integer id *array*: it then reaches the
        bounds, the pair cache and the kernel without per-element type
        dispatch.

        ``prefiltered=True`` tells the sandwich the caller already applied
        the Chebyshev lower bound to these targets (e.g. via
        ``VantageEmbedding.candidates``), so the redundant lower pass —
        which would reject exactly zero candidates — is skipped.
        """
        if not isinstance(targets, np.ndarray):
            targets = list(targets)
        if runtime is None:
            runtime = self._referee
        return runtime.run(
            self, source, targets, theta, eps, prefiltered=prefiltered
        )

    def stage_features(self):
        """The assignment bound's feature cache over the attached graphs,
        extended on demand when the graph list has grown (live inserts)."""
        require(
            self._graphs is not None,
            "stage features require an attached graph list",
        )
        with self._cache_lock:
            if self._stage_features is None:
                self._stage_features = StageFeatures()
            self._stage_features.sync(self._graphs)
            return self._stage_features

    # ------------------------------------------------------------------
    # Evaluation backends
    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            from repro.engine.pool import create_pool

            self._pool_observed = obs.enabled()
            self._pool = create_pool(
                self.pool_workers, self._base_distance, self._graphs,
                observe=self._pool_observed,
            )
        return self._pool

    def _pool_map(self, task, payloads, pairs: int, kind: str):
        """Fan a batch out over the pool: deadline shipping, worker-death
        retries, and worker metric/degradation merging."""
        self.parallel_batches += len(payloads)
        obs.counter("engine.pool.batches")
        obs.counter("engine.pool.chunks", len(payloads))
        deadline = current_deadline()
        if deadline is not None:
            from repro.engine.pool import wrap_deadline

            state = deadline.state()
            payloads = [wrap_deadline(payload, state) for payload in payloads]
        with obs.span("engine.pool.map", chunks=len(payloads), pairs=pairs), \
                obs.timer("engine.pool.map_seconds"):
            results = self._map_with_retry(task, payloads, kind)
            # Merging inside the span nests worker chunk spans under it.
            return [self._unwrap_result(item, deadline) for item in results]

    def _map_with_retry(self, task, payloads, kind: str):
        """``pool.map`` with worker-death recovery.

        A dead worker surfaces as ``BrokenProcessPool``; the pool is torn
        down, respawned and the whole batch retried (chunks are pure
        functions of their payloads, so re-running them is safe) under the
        engine's :class:`~repro.resilience.RetryPolicy`.  Exhausted
        attempts fall back to in-process serial evaluation — slower but
        bit-identical, so a broken pool degrades throughput, never answers.
        """
        from concurrent.futures.process import BrokenProcessPool

        policy = self.retry_policy
        for attempt in range(policy.max_attempts):
            if attempt > 0:
                self.pool_respawns += 1
                obs.counter("engine.pool.respawns")
            try:
                with obs.span("engine.pool.attempt", attempt=attempt):
                    return list(self._ensure_pool().map(task, payloads))
            except BrokenProcessPool:
                self.invalidate_pool()
                self.pool_retries += 1
                obs.counter("engine.pool.retries")
                if attempt + 1 < policy.max_attempts:
                    delay = policy.delay(attempt)
                    with obs.span(
                        "engine.pool.respawn", attempt=attempt + 1,
                        delay_seconds=round(delay, 4),
                    ):
                        time.sleep(delay)
        self.pool_serial_fallbacks += 1
        obs.counter("engine.pool.serial_fallbacks")
        obs.gauge("engine.pool.degraded", 1)
        return [self._eval_payload_serial(kind, payload) for payload in payloads]

    def _unwrap_result(self, item, deadline):
        """Strip worker wrappers from one chunk result: degradation counts
        (merged into the parent deadline) and obs deltas (merged into the
        active registry).  Serial-fallback results pass through untouched."""
        from repro.engine.pool import split_degradations

        item, degradations = split_degradations(item)
        if degradations:
            if deadline is not None:
                deadline.merge_degradations(degradations)
            if not self._pool_observed:
                # Observed workers already counted these in their shipped
                # registry delta; unobserved ones could not.
                for kind, count in degradations.items():
                    obs.counter("resilience.degradations", count)
                    obs.counter(f"resilience.degraded.{kind}", count)
        if self._pool_observed and isinstance(item, tuple):
            block, state = item
            obs.merge_state(state, worker=True)
            return block
        return item

    def _eval_payload_serial(self, kind: str, payload):
        """In-process evaluation of one worker payload (the last rung of
        the pool fallback ladder); same values as any worker would return."""
        from repro.engine.pool import split_deadline

        # The parent's deadline scope is still active here; the shipped
        # copy is only needed across a process boundary.
        payload, _ = split_deadline(payload)
        if kind == "one_to_many":
            source_ref, target_refs = payload
            source = self._resolve(source_ref)
            targets = [self._resolve(ref) for ref in target_refs]
            if self._evaluator is not None:
                return [float(v) for v in self._evaluator.one_to_many(source, targets)]
            return [float(self.inner(source, target)) for target in targets]
        out: list[float] = []
        for ref_a, ref_b in payload:
            a, b = self._resolve(ref_a), self._resolve(ref_b)
            if self._evaluator is not None:
                out.append(float(self._evaluator.one_to_many(a, [b])[0]))
            else:
                out.append(float(self.inner(a, b)))
        return out

    def _chunk(self, total: int) -> int:
        if self.chunk_size is not None:
            return max(1, int(self.chunk_size))
        # ~2 tasks per worker: the batch evaluator has a fixed per-chunk
        # setup cost, so fewer, larger chunks beat fine-grained dispatch.
        return max(8, -(-total // (self.pool_workers * 2)))

    def _evaluate_one_to_many(self, source_ref, source_graph, miss_refs):
        count = len(miss_refs)
        with self._cache_lock:
            self.batches += 1
            self.evaluations += count
        obs.counter("engine.batches")
        obs.counter("engine.evaluations", count)
        obs.histogram("engine.batch_size", count)
        if self.pool_workers > 1 and count >= self.parallel_threshold:
            from repro.engine.pool import run_one_to_many

            chunk = self._chunk(count)
            payloads = [
                (
                    self._encode(source_ref),
                    [self._encode(ref) for ref, _ in miss_refs[k:k + chunk]],
                )
                for k in range(0, count, chunk)
            ]
            results = self._pool_map(run_one_to_many, payloads, count, "one_to_many")
            return [value for block in results for value in block]
        graphs = [graph for _, graph in miss_refs]
        if self._evaluator is not None:
            return self._evaluator.one_to_many(source_graph, graphs)
        return [float(self.inner(source_graph, graph)) for graph in graphs]

    def _evaluate_pairs(self, miss_refs):
        count = len(miss_refs)
        with self._cache_lock:
            self.batches += 1
            self.evaluations += count
        obs.counter("engine.batches")
        obs.counter("engine.evaluations", count)
        obs.histogram("engine.batch_size", count)
        if self.pool_workers > 1 and count >= self.parallel_threshold:
            from repro.engine.pool import run_pairs

            chunk = self._chunk(count)
            payloads = [
                [
                    (self._encode(ref_a), self._encode(ref_b))
                    for (ref_a, _), (ref_b, _) in miss_refs[k:k + chunk]
                ]
                for k in range(0, count, chunk)
            ]
            results = self._pool_map(run_pairs, payloads, count, "pairs")
            return [value for block in results for value in block]
        out: list[float] = []
        position = 0
        while position < count:
            # Group consecutive pairs sharing a left graph for the batch
            # evaluator (matrix rows arrive exactly this way).
            (_, left), _ = miss_refs[position]
            stop = position
            while stop < count and miss_refs[stop][0][1] is left:
                stop += 1
            rights = [graph for _, (_, graph) in miss_refs[position:stop]]
            if self._evaluator is not None:
                out.extend(self._evaluator.one_to_many(left, rights))
            else:
                out.extend(float(self.inner(left, right)) for right in rights)
            position = stop
        return out
