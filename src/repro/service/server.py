"""The long-lived concurrent query service.

:class:`QueryService` turns the in-process trio —
:func:`repro.open_database` / :func:`repro.open_index` /
:meth:`NBIndex.query <repro.index.NBIndex.query>` — into a serving
boundary that survives overload, poisoned queries and index swaps:

* **admission control** (:mod:`repro.service.admission`): a bounded queue
  with ``max_concurrency`` worker threads; excess load is shed with a
  typed ``overloaded`` rejection and a retry-after hint, never queued
  unboundedly.  Per-request deadlines derive from
  :class:`repro.resilience.Deadline` at admission, so queue wait counts
  against the budget.  A deadline cancels: a request whose deadline
  expires in the queue or mid-query is answered ``deadline_expired``, and
  every answer given is exact and certified (``opt_upper`` +
  ``certified_ratio``).
* **hot index reload** (:mod:`repro.service.reload`): a watcher thread
  fingerprints the index artifact and atomically swaps a validated
  replacement under a read-write latch; corrupt candidates are rolled
  back with the previous index still serving.
* **fault isolation** (:mod:`repro.service.crashlog`): a query that
  raises is journaled (request + seed + traceback) and answered with a
  typed ``query_failed``; the worker thread survives.
* **graceful drain**: :meth:`QueryService.drain` stops admission,
  finishes or deadline-cancels queued work within the grace period, and
  flushes :mod:`repro.obs` metrics.

Transports (:func:`serve_lines` for stdin/stdout pipes,
:func:`serve_tcp` for sockets) speak the line-JSON protocol of
:mod:`repro.service.protocol`; both are thin shells over the same
service object, which is equally usable in-process (see
``tests/test_service.py``).
"""

from __future__ import annotations

import json
import queue
import socketserver
import threading
import time
from dataclasses import dataclass

from repro import obs
from repro.graphs import quartile_relevance
from repro.resilience import BudgetExceeded, faults
from repro.service import crashlog, protocol
from repro.service.admission import AdmissionController, Ticket
from repro.service.crashlog import CrashJournal
from repro.service.errors import (
    DeadlineExpired,
    InvalidRequest,
    Overloaded,
    QueryFailed,
    ServiceError,
)
from repro.service.protocol import QueryRequest
from repro.service.reload import IndexManager
from repro.utils.validation import require


@dataclass
class ServiceConfig:
    """Service tuning knobs (see ``docs/service.md`` for guidance)."""

    max_concurrency: int = 2
    max_queue: int = 16
    default_timeout_ms: float | None = None
    drain_grace_s: float = 5.0
    crash_log: str | None = None
    crash_log_max_bytes: int | None = crashlog.DEFAULT_MAX_BYTES
    crash_log_keep: int = 3
    watch: str | None = None
    reload_poll_s: float = 1.0
    max_request_bytes: int = protocol.MAX_REQUEST_BYTES
    metrics_path: str | None = None
    #: Background scrubber cadence; ``None`` disables the service thread
    #: (one-shot ``scrub`` protocol ops still work).
    scrub_interval_s: float | None = None

    def __post_init__(self):
        require(self.max_concurrency >= 1, "max_concurrency must be >= 1")
        require(self.max_queue >= 1, "max_queue must be >= 1")
        require(self.drain_grace_s >= 0.0, "drain_grace_s must be >= 0")
        require(self.reload_poll_s > 0.0, "reload_poll_s must be > 0")
        require(
            self.scrub_interval_s is None or self.scrub_interval_s > 0.0,
            "scrub_interval_s must be > 0 (or None to disable)",
        )


class QueryService:
    """A running query service over one (hot-swappable) NB-Index."""

    def __init__(self, index, *, config: ServiceConfig | None = None,
                 distance=None):
        self.config = config or ServiceConfig()
        self.manager = IndexManager(
            index, distance=distance, watch_path=self.config.watch
        )
        self.admission = AdmissionController(
            max_queue=self.config.max_queue,
            max_concurrency=self.config.max_concurrency,
            default_timeout_ms=self.config.default_timeout_ms,
        )
        self.journal = CrashJournal(
            self.config.crash_log,
            max_bytes=self.config.crash_log_max_bytes,
            keep_rotated=self.config.crash_log_keep,
        )
        #: Where this deployment's database and journal live on disk —
        #: filled by :meth:`open`; the ``backup`` op and the scrubber's
        #: journal-base resolution read from here.
        self.source_paths: dict = {}
        self.scrubber = None
        self._threads: list[threading.Thread] = []
        self._stop_watcher = threading.Event()
        self._started = False
        self._drained = False
        self.started_at = time.monotonic()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        database_path,
        *,
        index_path=None,
        shards_path=None,
        distance=None,
        config: ServiceConfig | None = None,
        mutable: bool = False,
        journal=None,
        replicas: int | None = None,
        **build_kwargs,
    ) -> "QueryService":
        """The CLI path: open the database, load or build the index.

        With ``index_path`` the artifact is loaded through
        :func:`repro.open_index` (and becomes the default hot-reload
        watch target); with ``shards_path`` a shard-manifest bundle is
        loaded instead and the service runs the scatter-gather
        coordinator; without either the index is built in-process with
        ``build_kwargs``.

        ``mutable=True`` opens the artifact through the delta layer, so
        the deployment accepts ``insert``/``delete``/``update``/
        ``compact`` protocol ops; ``journal`` (mutable only) replays and
        then appends a durable mutation journal.  A mutable deployment
        never runs the reload watcher — the delta layer owns the index
        lifecycle, and ``compact`` is the sanctioned swap path.

        ``replicas=R`` (shard bundles only) serves the bundle from a
        supervised multi-process cluster — R worker processes, each
        serving the whole bundle, restarted on failure, a failed query
        re-run on another (:class:`repro.replica.ReplicatedIndex`) —
        instead of in process.  Incompatible with ``mutable`` and with
        the reload watcher: worker processes serve an immutable bundle.
        """
        import repro

        require(
            index_path is None or shards_path is None,
            "pass index_path or shards_path, not both",
        )
        source_paths = {
            "database": str(database_path),
            "journal": None if journal is None else str(journal),
        }
        if distance is None:
            distance = repro.StarDistance()
        if config is None:
            config = ServiceConfig()
        if replicas is not None:
            database = repro.open_database(database_path)
            require(
                shards_path is not None,
                "replicas= needs a shard bundle (shards_path)",
            )
            require(not mutable, "a replicated deployment is read-only")
            require(
                config.watch is None,
                "a replicated deployment cannot hot-reload from a watch "
                "path; restart the cluster to pick up a new bundle",
            )
            from repro.replica import ReplicatedIndex

            index = ReplicatedIndex.open(
                shards_path, database, distance, replicas=replicas,
            )
            service = cls(index, config=config, distance=distance)
            service.source_paths = source_paths
            return service
        artifact = shards_path if shards_path is not None else index_path
        if artifact is not None:
            # With a journal the database travels as a *path*: a
            # checkpointed journal (generation > 0) pins its own base
            # file, and open_index resolves + verifies it before replay.
            index = repro.open_index(
                artifact,
                database_path if journal is not None
                else repro.open_database(database_path),
                distance,
                shards=shards_path is not None,
                mutable=mutable, journal=journal,
                seed=int(build_kwargs.get("seed", 0) or 0),
            )
            if config.watch is None and not mutable:
                config.watch = str(artifact)
        else:
            require(
                journal is None,
                "journal= needs a saved artifact (index_path or "
                "shards_path) to anchor the base generation",
            )
            database = repro.open_database(database_path)
            index = repro.NBIndex.build(database, distance, **build_kwargs)
            if mutable:
                from repro.delta import MutableIndex

                index = MutableIndex(database, index, distance=distance)
        require(
            not (mutable and config.watch is not None),
            "a mutable deployment cannot also hot-reload from a watch "
            "path; compaction owns index swaps",
        )
        service = cls(index, config=config, distance=distance)
        service.source_paths = source_paths
        return service

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "QueryService":
        """Spawn the worker threads (and the reload watcher, if any)."""
        require(not self._started, "service already started")
        self._started = True
        for worker_id in range(self.config.max_concurrency):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{worker_id}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        if self.manager.watch_path is not None:
            watcher = threading.Thread(
                target=self._watch_loop, name="repro-serve-watch", daemon=True,
            )
            watcher.start()
            self._threads.append(watcher)
        if self.config.scrub_interval_s is not None:
            self._ensure_scrubber().start()
        obs.counter("service.starts")
        return self

    def _ensure_scrubber(self):
        """Lazily build the scrubber over the *current* index (the
        callable indirection keeps it correct across reloads/compactions)."""
        if self.scrubber is None:
            from repro.durability import Scrubber

            self.scrubber = Scrubber(
                lambda: self.manager.index,
                interval_s=self.config.scrub_interval_s or 30.0,
                database_path=self.source_paths.get("database"),
            )
        return self.scrubber

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.drain()

    def drain(self, grace_s: float | None = None) -> dict:
        """Graceful shutdown: stop admitting, finish in-flight work within
        the grace period, cancel the rest, flush metrics.

        Returns a report: ``{"clean": bool, "cancelled": int,
        "completed": int, "grace_s": float}``.  Idempotent.
        """
        if self._drained:
            return {"clean": True, "cancelled": 0,
                    "completed": self.admission.completed, "grace_s": 0.0}
        self._drained = True
        grace = self.config.drain_grace_s if grace_s is None else float(grace_s)
        give_up_at = time.monotonic() + grace
        self._stop_watcher.set()
        if self.scrubber is not None:
            self.scrubber.stop()
        self.admission.close()
        for thread in self._threads:
            thread.join(max(0.0, give_up_at - time.monotonic()))
        cancelled = self.admission.cancel_pending(
            lambda ticket: protocol.error_response(
                getattr(ticket.request, "id", None),
                Overloaded("service draining; request cancelled",
                           retry_after_s=grace),
            )
        )
        clean = not any(thread.is_alive() for thread in self._threads)
        close = getattr(self.manager.index, "close", None)
        if close is not None:  # mutable: journal; replicated: worker fleet
            close()
        obs.counter("service.drains")
        obs.gauge("service.queue_depth", 0)
        if self.config.metrics_path and obs.enabled():
            obs.write_metrics(self.config.metrics_path)
        return {
            "clean": clean,
            "cancelled": cancelled,
            "completed": self.admission.completed,
            "grace_s": grace,
        }

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(self, request: QueryRequest) -> Ticket:
        """Admit one request; raises ``Overloaded``/``ServiceClosed``."""
        require(self._started, "service not started (call start())")
        return self.admission.admit(request, timeout_ms=request.timeout_ms)

    def call(self, request: QueryRequest, timeout: float | None = None) -> dict:
        """Submit and wait; rejections come back as typed responses too."""
        try:
            ticket = self.submit(request)
        except ServiceError as error:
            return protocol.error_response(request.id, error)
        response = ticket.wait(timeout)
        if response is None:
            return protocol.error_response(
                request.id,
                Overloaded("timed out waiting for a worker",
                           retry_after_s=1.0),
            )
        return response

    def stats(self) -> dict:
        """Statable protocol: one dict over every service component."""
        index = self.manager.index
        index_stats = {
            "num_graphs": len(self.manager.database),
            "generation": self.manager.generation,
        }
        index_stats["mutable"] = bool(getattr(index, "mutable", False))
        if index_stats["mutable"]:
            index_stats["num_shards"] = index.num_shards
            index_stats["delta"] = index.stats()["delta"]
        elif hasattr(index, "num_shards"):
            index_stats["num_shards"] = index.num_shards
            index_stats["partitioner"] = index.manifest.partitioner
            index_stats["reused_shards"] = index.reused_shards
            if hasattr(index, "supervisor"):  # replicated process cluster
                index_stats["replica"] = index.supervisor.stats()
        out = {
            "uptime_seconds": time.monotonic() - self.started_at,
            "admission": self.admission.stats(),
            "reload": self.manager.stats(),
            "crashes": self.journal.stats(),
            "scrub": (
                self.scrubber.status() if self.scrubber is not None
                else {"running": False, "cycles": 0}
            ),
            "index": index_stats,
        }
        memory = obs.process_memory()
        if memory is not None:  # no /proc: the key is absent, not zero
            out["process"] = memory
        return out

    # ------------------------------------------------------------------
    # Worker internals
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            ticket = self.admission.next()
            if ticket is None:
                return
            started = time.monotonic()
            request = ticket.request
            try:
                response = self._execute(ticket)
            except ServiceError as error:
                response = protocol.error_response(request.id, error)
            except Exception as error:
                # Fault isolation: the query dies, the worker does not.
                self.journal.record(request, error)
                response = protocol.error_response(
                    request.id,
                    QueryFailed(
                        f"query raised {type(error).__name__}: {error}",
                        exception_type=type(error).__name__,
                    ),
                )
            self.admission.note_completion(time.monotonic() - started)
            ticket.resolve(response)

    def _execute(self, ticket: Ticket) -> dict:
        request = ticket.request
        if ticket.deadline is not None and ticket.deadline.expired():
            obs.counter("service.deadline_expired")
            raise DeadlineExpired(
                "deadline expired while queued; not starting late"
            )
        if request.op == "ping":
            return protocol.ok_response(
                request.id,
                {"pong": True, "generation": self.manager.generation},
            )
        if request.op == "stats":
            return protocol.ok_response(request.id, self.stats())
        if request.op == "reload":
            path = request.path or self.manager.watch_path
            if path is None:
                raise InvalidRequest(
                    "reload needs a 'path' (no watch path configured)"
                )
            generation = self.manager.reload(path)  # ReloadFailed is typed
            return protocol.ok_response(request.id, {"generation": generation})
        if request.op in ("checkpoint", "backup", "scrub", "scrub_status"):
            return self._execute_durability(ticket)
        if request.op in protocol.MUTATION_OPS:
            return self._execute_mutation(ticket)
        return self._execute_query(ticket)

    def _execute_durability(self, ticket: Ticket) -> dict:
        """Durability admin ops: checkpoint / backup / scrub / scrub_status.

        All run on a worker thread like any other request — the journal
        swap and the backup's source reads take the mutable index's own
        latch, so in-flight queries are never interrupted."""
        request = ticket.request
        from repro.durability import BackupError, CheckpointError, create_backup

        if request.op == "checkpoint":
            with self.manager.acquire() as index:
                if not getattr(index, "mutable", False) or (
                    getattr(index, "journal", None) is None
                ):
                    raise InvalidRequest(
                        "checkpoint needs a mutable deployment with a "
                        "journal (start it with --mutable --journal)"
                    )
                try:
                    with obs.timer("service.checkpoint_seconds"):
                        report = index.checkpoint()
                except CheckpointError as error:
                    raise QueryFailed(
                        str(error), exception_type="CheckpointError"
                    ) from error
            obs.counter("service.checkpoints")
            return protocol.ok_response(request.id, report)
        if request.op == "backup":
            sources = self.source_paths
            if not any(sources.get(role) for role in ("database", "journal")):
                raise InvalidRequest(
                    "backup needs an on-disk database; this service "
                    "was built in-process (open it over saved files)"
                )
            with self.manager.acquire() as index:
                try:
                    with obs.timer("service.backup_seconds"):
                        report = create_backup(
                            request.path,
                            database=sources.get("database"),
                            journal=sources.get("journal"),
                            latch=getattr(index, "latch", None),
                        )
                except BackupError as error:
                    raise QueryFailed(
                        str(error), exception_type="BackupError"
                    ) from error
            obs.counter("service.backups")
            return protocol.ok_response(request.id, report)
        if request.op == "scrub":
            report = self._ensure_scrubber().scrub_once()
            return protocol.ok_response(request.id, report)
        # scrub_status: cheap introspection, no cycle triggered.
        if self.scrubber is None:
            return protocol.ok_response(
                request.id, {"running": False, "cycles": 0}
            )
        return protocol.ok_response(request.id, self.scrubber.status())

    def _execute_mutation(self, ticket: Ticket) -> dict:
        """Apply one mutation op through the delta layer.

        The manager's read side pins the index object; the MutableIndex's
        own writer-preferring latch serializes the mutation against
        concurrent queries and compaction swaps."""
        request = ticket.request
        with self.manager.acquire() as index:
            if not getattr(index, "mutable", False):
                raise InvalidRequest(
                    f"op {request.op!r} needs a mutable deployment; this "
                    f"service is read-only (start it with --mutable)"
                )
            if request.op == "compact":
                from repro.delta import CompactionError

                try:
                    with obs.timer("service.compact_seconds"):
                        report = index.compact()
                except CompactionError as error:
                    raise QueryFailed(
                        str(error), exception_type="CompactionError"
                    ) from error
                obs.counter("service.compacts")
                return protocol.ok_response(request.id, report)
            if request.op == "delete":
                try:
                    deleted = index.delete(request.gid)
                except ValueError as error:  # gid out of range
                    raise InvalidRequest(str(error)) from error
                obs.counter("service.mutations")
                return protocol.ok_response(request.id, {
                    "deleted": bool(deleted),
                    "tombstones": index.tombstones,
                })
            graph, features = self._decode_graph_payload(request, index)
            if request.op == "insert":
                gid = index.insert(graph, features)
            else:  # update
                try:
                    gid = index.update(request.gid, graph, features)
                except ValueError as error:
                    raise InvalidRequest(str(error)) from error
            obs.counter("service.mutations")
            return protocol.ok_response(request.id, {
                "gid": int(gid),
                "memtable_size": index.memtable_size,
                "generation": index.generation,
            })

    @staticmethod
    def _decode_graph_payload(request: QueryRequest, index):
        """Wire graph/features → validated in-memory objects."""
        import numpy as np

        from repro.graphs.io import graph_from_dict

        try:
            graph = graph_from_dict(request.graph)
        except (KeyError, TypeError, ValueError) as error:
            raise InvalidRequest(
                f"malformed 'graph' payload: {error}"
            ) from error
        features = np.asarray(request.features, dtype=float)
        expected = index.database.num_features
        if features.shape != (expected,):
            raise InvalidRequest(
                f"'features' must have exactly {expected} values, "
                f"got {features.shape[0]}"
            )
        return graph, features

    def _execute_query(self, ticket: Ticket) -> dict:
        request = ticket.request
        faults.maybe_slow("service.query")  # chaos-test hook site
        with self.manager.acquire() as index:
            if request.dims is not None:
                num_features = index.database.num_features
                if any(not 0 <= d < num_features for d in request.dims):
                    raise InvalidRequest(
                        f"dims must be in [0, {num_features}); "
                        f"got {list(request.dims)}"
                    )
            query_fn = quartile_relevance(
                index.database, dims=request.dims,
                quantile=request.quantile,
            )
            try:
                with obs.timer("service.query_seconds"):
                    result = index.query(
                        query_fn, request.theta, request.k,
                        deadline=ticket.deadline,
                    )
            except BudgetExceeded as expired:
                obs.counter("service.deadline_expired")
                raise DeadlineExpired(str(expired)) from None
            generation = self.manager.generation
        obs.counter("service.queries")
        body = {
            "answer": [int(g) for g in result.answer],
            "gains": [int(g) for g in result.gains],
            "pi": float(result.pi),
            "num_relevant": int(result.num_relevant),
            "theta": float(result.theta),
            "opt_upper": int(result.opt_upper),
            "certified_ratio": float(result.certified_ratio),
            "generation": generation,
        }
        return protocol.ok_response(request.id, body)

    def _watch_loop(self) -> None:
        while not self._stop_watcher.wait(self.config.reload_poll_s):
            try:
                self.manager.maybe_reload()
            except Exception:  # pragma: no cover - watcher must survive
                obs.counter("service.watch_errors")

    def __repr__(self) -> str:
        return (
            f"QueryService(workers={self.config.max_concurrency}, "
            f"queue={self.admission.depth}/{self.config.max_queue}, "
            f"generation={self.manager.generation})"
        )


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------
_EOF = object()


def _best_effort_id(line: str):
    """Pull the request id out of a line that failed validation."""
    try:
        payload = json.loads(line)
        return payload.get("id") if isinstance(payload, dict) else None
    except (json.JSONDecodeError, ValueError):
        return None


def serve_lines(service: QueryService, in_stream, out_stream) -> dict:
    """Pump the line protocol between two streams until EOF, then drain.

    Requests are pipelined into the service as they arrive; responses are
    written in *request order* (a writer thread waits on each ticket in
    FIFO order), so the output is deterministic for scripted clients.
    Admission rejections and parse errors slot into the same FIFO.
    """
    pending: queue.Queue = queue.Queue()
    out_lock = threading.Lock()

    def _writer() -> None:
        while True:
            item = pending.get()
            if item is _EOF:
                return
            response = item if isinstance(item, dict) else item.wait()
            with out_lock:
                out_stream.write(protocol.encode(response) + "\n")
                out_stream.flush()

    writer = threading.Thread(target=_writer, name="repro-serve-out", daemon=True)
    writer.start()
    served = 0
    try:
        for line in in_stream:
            if not line.strip():
                continue
            served += 1
            try:
                request = protocol.parse_request(
                    line, max_bytes=service.config.max_request_bytes
                )
                pending.put(service.submit(request))
            except ServiceError as error:
                pending.put(
                    protocol.error_response(_best_effort_id(line), error)
                )
    except KeyboardInterrupt:
        # SIGTERM/SIGINT mid-stream (the CLI turns both into this): stop
        # reading and fall through to the same drain path EOF takes —
        # already-admitted requests still get their FIFO responses.
        pass
    pending.put(_EOF)
    writer.join()
    report = service.drain()
    report["served"] = served
    return report


class _LineHandler(socketserver.StreamRequestHandler):
    """One TCP connection: sequential request/response over the socket.

    Concurrency comes from multiple connections (the server is
    threading); within one connection, ordering is the protocol.
    """

    def handle(self) -> None:
        service: QueryService = self.server.service  # type: ignore[attr-defined]
        for raw in self.rfile:
            line = raw.decode("utf-8", errors="replace")
            if not line.strip():
                continue
            try:
                request = protocol.parse_request(
                    line, max_bytes=service.config.max_request_bytes
                )
                response = service.call(request)
            except ServiceError as error:
                response = protocol.error_response(
                    _best_effort_id(line), error
                )
            try:
                self.wfile.write((protocol.encode(response) + "\n").encode())
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                return


class _ServiceTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


def serve_tcp(service: QueryService, host: str = "127.0.0.1", port: int = 0):
    """Bind a threading TCP server speaking the line protocol.

    Returns the server (its ``server_address`` has the bound port when
    ``port=0``); run ``serve_forever()`` on it — typically in a thread —
    and ``shutdown()`` + ``service.drain()`` to stop.
    """
    server = _ServiceTCPServer((host, port), _LineHandler)
    server.service = service  # type: ignore[attr-defined]
    return server
