"""Span recorders installed from outside the program.

``install()`` wraps the public, batch-granular entry points of each layer
(see ``TARGETS``) with a recorder that keeps spans in memory: name, layer,
start, end, parent and the request id of the operation the benchmark
driver was timing.  Nothing under ``src/`` knows about it — the wrappers
are attribute patches applied after ``repro`` is imported — so the numbers
describe the program as shipped plus a per-span cost that
``obs.trace_overhead_frac`` reports.

Self time of a span is its duration minus the time covered by its child
spans; a layer's ``self_s`` is the sum over its spans.  Raw spans are kept
for the first ``RAW_REQUESTS`` requests (capped), everything is aggregated
per (request, name, parent).

The served workload loads this module in the server process through
``shim/sitecustomize.py``; forked replica workers inherit the patches, and
every process dumps one file per pid when the driver sends SIGUSR1.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

#: Raw spans are kept for this many distinct requests ...
RAW_REQUESTS = 8
#: ... and never more than this many in total (a cold query alone opens
#: thousands of engine batches).
RAW_SPAN_CAP = 20000

#: Spans with this layer are charged to their parent's layer
#: (``os.fsync`` belongs to whoever asked for the flush).
INHERIT = "inherit"
#: Blocking calls that mostly wait for another thread or process (whose
#: own spans account for the work): kept out of every layer's self time.
WAIT = "wait"


class Recorder:
    """In-memory span store with on-the-fly (request, name, parent)
    aggregation.  One per process."""

    def __init__(self):
        self.enabled = True
        self._local = threading.local()
        # Re-entrant: the SIGUSR1 dump runs on the main thread, possibly
        # inside record().
        self._lock = threading.RLock()
        self.reset()

    def reset(self) -> None:
        self.raw: list[dict] = []
        #: (request, name, parent) -> [count, total_s, self_s]
        self.agg: dict[tuple, list] = {}
        self.counters: dict[str, float] = {}
        #: replica session id -> request id (router side), so worker
        #: spans tagged ``sid:<sid>`` can be merged onto their request.
        self.links: dict[str, object] = {}
        #: objects whose public counters are read at dump time
        self.objects: dict[str, dict[int, object]] = {}
        self._raw_requests: list = []

    # -- per-thread state ------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request) -> None:
        self._local.request = request

    def request(self):
        return getattr(self._local, "request", None)

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def remember(self, kind: str, obj) -> None:
        self.objects.setdefault(kind, {})[id(obj)] = obj

    # -- recording -------------------------------------------------------
    def record(self, name, layer, parent, parent_layer, start, end, self_s):
        if layer == INHERIT:
            layer = parent_layer or "other"
        request = self.request()
        key = (request, name, parent)
        with self._lock:
            entry = self.agg.get(key)
            if entry is None:
                entry = self.agg[key] = [0, 0.0, 0.0, layer]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_s
            if len(self.raw) < RAW_SPAN_CAP:
                known = request in self._raw_requests
                if not known and len(self._raw_requests) < RAW_REQUESTS:
                    self._raw_requests.append(request)
                    known = True
                if known:
                    self.raw.append({
                        "name": name, "layer": layer, "start": start,
                        "end": end, "parent": parent, "request": request,
                        "thread": threading.get_ident(),
                    })
        return layer

    def wrap(self, fn, name: str, layer: str, before=None, after=None):
        """The recording wrapper around ``fn``.

        ``before(recorder, args, kwargs)`` runs ahead of the call (set a
        request id, tally batch sizes); ``after(recorder, result, args,
        seconds)`` after it."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            if before is not None:
                before(recorder, args, kwargs)
            # frame: name, layer, start, seconds covered by children
            frame = [name, layer, time.perf_counter(), 0.0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                seconds = end - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += seconds
                frame[1] = recorder.record(
                    name, frame[1],
                    parent[0] if parent else None,
                    parent[1] if parent else None,
                    frame[2], end, seconds - frame[3],
                )
                if after is not None:
                    after(recorder, result, args, seconds)

        traced.__e2e_traced__ = True
        return traced

    # -- output ----------------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            return {
                "pid": os.getpid(),
                "spans": list(self.raw),
                "aggregate": [
                    {
                        "request": request, "name": name, "parent": parent,
                        "layer": entry[3], "count": entry[0],
                        "total_s": entry[1], "self_s": entry[2],
                    }
                    for (request, name, parent), entry in self.agg.items()
                ],
                "counters": dict(self.counters),
                "links": dict(self.links),
            }


RECORDER = Recorder()


# ---------------------------------------------------------------------------
# Hooks: what the wrappers tally besides time
# ---------------------------------------------------------------------------
def _count_targets(key, position):
    def before(recorder, args, kwargs):
        try:
            recorder.count(key, len(args[position]))
        except (IndexError, TypeError):
            pass
    return before


def _cascade_before(recorder, args, kwargs):
    recorder.remember("cascade", args[0])
    try:
        recorder.count("cascade.pairs_in", len(args[3]))
    except (IndexError, TypeError):
        pass


def _frame_bytes(recorder, result, args, seconds):
    if result is not None:
        recorder.count("replica.frame_bytes", len(result))


def _router_before(recorder, args, kwargs):
    payload = args[2] if len(args) > 2 else kwargs.get("payload")
    if isinstance(payload, dict) and "sid" in payload:
        recorder.links.setdefault(str(payload["sid"]), recorder.request())


def _worker_before(recorder, args, kwargs):
    recorder.remember("shard_worker", args[0])
    request = args[1] if len(args) > 1 else {}
    sid = request.get("sid") if isinstance(request, dict) else None
    recorder.set_request(f"sid:{sid}" if sid is not None else None)


def _service_call_before(recorder, args, kwargs):
    request = args[1] if len(args) > 1 else kwargs.get("request")
    recorder.set_request(getattr(request, "id", None))


def _parse_after(recorder, result, args, seconds):
    if result is not None:
        recorder.set_request(getattr(result, "id", None))


_ADMITTED: dict[int, float] = {}


def _admit_after(recorder, result, args, seconds):
    if result is not None:
        _ADMITTED[id(result)] = time.perf_counter()


def _next_after(recorder, result, args, seconds):
    """Runs on the service worker thread that will execute the ticket:
    adopt its request id and book the queue wait."""
    if result is None:
        return
    recorder.set_request(getattr(result.request, "id", None))
    admitted = _ADMITTED.pop(id(result), None)
    if admitted is not None:
        recorder.count("service.queue_wait_s", time.perf_counter() - admitted)
        recorder.count("service.queue_waits", 1)


def _replay_after(recorder, result, args, seconds):
    recorder.count("durability.replay_s", seconds)
    recorder.count("durability.replayed_records", args[0].num_records)


def _fsync_before(recorder, args, kwargs):
    recorder.count("os.fsyncs", 1)


def _failure_before(recorder, args, kwargs):
    recorder.count("replica.failovers", 1)


# ---------------------------------------------------------------------------
# What gets wrapped: (module, owner or None, attribute, layer[, before, after])
# ---------------------------------------------------------------------------
_FRONTIER_METHODS = (
    "begin_round", "open_round", "select", "foreign_coords",
    "pi_hat_uncovered", "neighborhood_of", "apply_update",
)

TARGETS = [
    # ged: the star kernel, batch entry + the scalar fallback
    ("repro.engine.starbatch", "BatchStarEvaluator", "one_to_many", "ged",
     _count_targets("ged.pair_evals", 2), None),
    ("repro.ged.star", "StarDistance", "__call__", "ged",
     lambda r, a, k: r.count("ged.pair_evals", 1), None),
    # engine: every public evaluation entry
    ("repro.engine.core", "DistanceEngine", "within", "engine",
     _count_targets("engine.pairs_requested", 2), None),
    ("repro.engine.core", "DistanceEngine", "one_to_many", "engine"),
    ("repro.engine.core", "DistanceEngine", "pairs", "engine"),
    ("repro.engine.core", "DistanceEngine", "matrix", "engine"),
    ("repro.engine.core", "DistanceEngine", "__call__", "engine"),
    # cascade
    ("repro.cascade.pipeline", "FilterCascade", "run", "cascade",
     _cascade_before, None),
    # bitset: matrix/row-batch kernels only (not test_bit / set_bit)
    *[
        ("repro.bitset.kernel", None, name, "bitset")
        for name in (
            "popcount_rows", "uncovered_counts", "from_positions",
            "to_positions", "test_positions",
        )
    ],
    # index
    ("repro.index.nbindex", "NBIndex", "build", "index"),
    ("repro.index.nbindex", "NBIndex", "session", "index"),
    ("repro.index.nbindex", "QuerySession", "query", "index"),
    ("repro.index.persistence", None, "save_index", "index"),
    ("repro.index.persistence", None, "load_index", "index"),
    # shard
    ("repro.shard.build", None, "build_shards", "shard"),
    ("repro.shard.sharded", "ShardedIndex", "load", "shard"),
    ("repro.shard.coordinator", "ShardedQuerySession", "query", "shard"),
    ("repro.shard.coordinator", None, "run_greedy", "shard"),
    *[
        ("repro.shard.frontier", "ShardFrontier", name, "shard")
        for name in _FRONTIER_METHODS
    ],
    ("repro.shard.frontier", "RoundSearch", "next", "shard"),
    # delta
    ("repro.delta.mutable", "MutableIndex", "insert", "delta"),
    ("repro.delta.mutable", "MutableIndex", "delete", "delta"),
    ("repro.delta.mutable", "MutableIndex", "update", "delta"),
    ("repro.delta.mutable", "MutableIndex", "compact", "delta"),
    ("repro.delta.mutable", "MutableIndex", "query", "delta"),
    ("repro.delta.journal", "MutationJournal", "append_insert", "delta"),
    ("repro.delta.journal", "MutationJournal", "append_delete", "delta"),
    ("repro.delta.journal", "MutationJournal", "append_update", "delta"),
    *[
        ("repro.delta.frontier", "ExactFrontier", name, "delta")
        for name in _FRONTIER_METHODS if name != "foreign_coords"
    ],
    ("repro.delta.frontier", "ExactRoundSearch", "next", "delta"),
    # durability
    ("repro.delta.mutable", "MutableIndex", "checkpoint", "durability"),
    ("repro.delta.journal", "MutationJournal", "replay_into", "durability",
     None, _replay_after),
    ("os", None, "fsync", INHERIT, _fsync_before, None),
    # replica
    ("repro.replica.cluster", "ReplicatedIndex", "query", "replica"),
    ("repro.replica.router", "ReplicaRouter", "call", "replica",
     _router_before, None),
    ("repro.replica.router", "ReplicaRouter", "broadcast", "replica",
     _router_before, None),
    *[
        ("repro.replica.remote", "RemoteFrontier", name, "replica")
        for name in _FRONTIER_METHODS if name != "foreign_coords"
    ],
    ("repro.replica.remote", "RemoteRoundSearch", "next", "replica"),
    ("repro.replica.wire", None, "encode_frame", "replica",
     None, _frame_bytes),
    ("repro.replica.wire", None, "read_frame", WAIT),
    ("repro.replica.worker", "ShardWorker", "handle", "replica",
     _worker_before, None),
    ("repro.replica.supervisor", "Supervisor", "report_failure", "replica",
     _failure_before, None),
    # service
    ("repro.service.protocol", None, "parse_request", "service",
     None, _parse_after),
    ("repro.service.protocol", None, "encode", "service"),
    ("repro.service.admission", "AdmissionController", "admit", "service",
     None, _admit_after),
    ("repro.service.admission", "AdmissionController", "next", WAIT,
     None, _next_after),
    ("repro.service.server", "QueryService", "call", WAIT,
     _service_call_before, None),
    # graphs
    ("repro.graphs.io", None, "load_database", "graphs"),
    ("repro.graphs.io", None, "save_database", "graphs"),
]


def _rebind_everywhere(original, replacement) -> None:
    """``from module import fn`` copies the binding: patch every loaded
    ``repro`` module (and ``os``) that still holds the original."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "os" or module_name.startswith("repro")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder = RECORDER) -> Recorder:
    """Patch every target.  Idempotent."""
    import importlib

    # Import the whole surface first so by-name imports get rebound too.
    import repro  # noqa: F401
    for module_name in sorted({target[0] for target in TARGETS}):
        importlib.import_module(module_name)
    importlib.import_module("repro.replica")
    importlib.import_module("repro.service")
    importlib.import_module("repro.delta")

    for target in TARGETS:
        module_name, owner_name, attr, layer = target[:4]
        before = target[4] if len(target) > 4 else None
        after = target[5] if len(target) > 5 else None
        module = sys.modules[module_name]
        owner = getattr(module, owner_name) if owner_name else module
        static = inspect.getattr_static(owner, attr)
        span_name = f"{owner_name}.{attr}" if owner_name else (
            f"{module_name.rsplit('.', 1)[-1]}.{attr}"
        )
        if isinstance(static, (classmethod, staticmethod)):
            fn = static.__func__
            if getattr(fn, "__e2e_traced__", False):
                continue
            wrapped = type(static)(
                recorder.wrap(fn, span_name, layer, before, after)
            )
            setattr(owner, attr, wrapped)
            continue
        if getattr(static, "__e2e_traced__", False):
            continue
        wrapped = recorder.wrap(static, span_name, layer, before, after)
        setattr(owner, attr, wrapped)
        if owner_name is None:
            _rebind_everywhere(static, wrapped)
    return recorder


# ---------------------------------------------------------------------------
# Server-side installation (via shim/sitecustomize.py)
# ---------------------------------------------------------------------------
def _dump(directory: Path, extra: dict | None = None) -> None:
    document = RECORDER.snapshot()
    document["cascade"] = cascade_totals(RECORDER)
    document["engines"] = _worker_engine_stats(RECORDER)
    if extra:
        document.update(extra)
    path = directory / f"trace-pid{os.getpid()}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(document))
    os.replace(tmp, path)


def _worker_engine_stats(recorder: Recorder) -> list[dict]:
    """Public engine counters of each shard worker this process hosted."""
    out = []
    for worker in recorder.objects.get("shard_worker", {}).values():
        for engine in (worker.index.engine, worker.global_engine):
            if engine is not None and hasattr(engine, "stats"):
                out.append(dict(engine.stats()))
    return out


def cascade_totals(recorder: Recorder) -> dict:
    """Per-stage counters summed over every cascade runtime that ran."""
    totals: dict[str, dict[str, float]] = {}
    for cascade in recorder.objects.get("cascade", {}).values():
        for stage, entry in cascade.snapshot().items():
            slot = totals.setdefault(
                stage, {"evals": 0, "prunes": 0, "accepts": 0, "seconds": 0.0}
            )
            for key in slot:
                slot[key] += entry.get(key, 0)
    return totals


def install_for_server(directory: str) -> None:
    """Called from ``sitecustomize`` in the served process.

    Every process of the deployment writes ``trace-pid<pid>.json`` into
    ``directory`` when it receives SIGUSR1 (the driver signals the whole
    process group once the measurements are done).  A signal rather than
    an exit hook, because the server's workers do not get to exit: they
    are killed after a join timeout.
    """
    out_dir = Path(directory)
    server_pid = os.getpid()
    install()

    def dump_on_signal(signum, frame):
        role = "server" if os.getpid() == server_pid else "worker"
        _dump(out_dir, {"role": role})

    signal.signal(signal.SIGUSR1, dump_on_signal)

    import repro.replica.supervisor as supervisor
    import repro.replica.worker as worker

    original = worker.worker_main

    @functools.wraps(original)
    def worker_main(*args, **kwargs):
        RECORDER.reset()  # forked from the server: drop its spans
        return original(*args, **kwargs)

    worker.worker_main = worker_main
    supervisor.worker_main = worker_main


# ---------------------------------------------------------------------------
# Reading traces back
# ---------------------------------------------------------------------------
def merge(documents: list[dict]) -> dict:
    """One document from several per-pid dumps; worker spans tagged
    ``sid:<sid>`` take the request id the router recorded for that sid."""
    links = {}
    for document in documents:
        links.update(document.get("links", {}))

    def resolve(request):
        if isinstance(request, str) and request.startswith("sid:"):
            return links.get(request[4:], request)
        return request

    merged = {
        "pids": [d.get("pid") for d in documents],
        "spans": [], "aggregate": [], "counters": {}, "cascade": {},
        "engines": [],
    }
    for document in documents:
        for span in document.get("spans", ()):
            merged["spans"].append(
                dict(span, request=resolve(span.get("request")),
                     pid=document.get("pid"))
            )
        for row in document.get("aggregate", ()):
            merged["aggregate"].append(
                dict(row, request=resolve(row.get("request")),
                     pid=document.get("pid"), role=document.get("role"))
            )
        for key, value in document.get("counters", {}).items():
            merged["counters"][key] = merged["counters"].get(key, 0) + value
        for stage, entry in document.get("cascade", {}).items():
            slot = merged["cascade"].setdefault(stage, {})
            for key, value in entry.items():
                slot[key] = slot.get(key, 0) + value
        merged["engines"].extend(document.get("engines", ()))
    return merged


def layer_self_seconds(aggregate) -> dict[str, float]:
    out: dict[str, float] = {}
    for row in aggregate:
        out[row["layer"]] = out.get(row["layer"], 0.0) + row["self_s"]
    return out


def span_stats(aggregate, name: str):
    """(count, total seconds, self seconds) of one span name."""
    count, total, self_s = 0, 0.0, 0.0
    for row in aggregate:
        if row["name"] == name:
            count += row["count"]
            total += row["total_s"]
            self_s += row["self_s"]
    return count, total, self_s


def per_span_cost_s(samples: int = 20000) -> float:
    """Calibrated cost of one recorded span (wrapper + bookkeeping)."""
    recorder = Recorder()

    def noop():
        return None

    traced = recorder.wrap(noop, "calibrate", "obs")
    started = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(samples):
        traced()
    return max(0.0, (time.perf_counter() - started - bare) / samples)
