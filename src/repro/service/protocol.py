"""The service wire protocol: line-delimited JSON, no dependencies.

One request per line in, one response per line out — the same frames work
over stdin/stdout pipes and TCP sockets, and a shell with ``echo`` and
``nc`` is a complete client.  Requests::

    {"id": 1, "op": "query", "theta": 8.0, "k": 5}
    {"id": 2, "op": "query", "theta": 8.0, "k": 5, "quantile": 0.5,
     "dims": [0, 1], "timeout_ms": 250, "seed": 7}
    {"id": 3, "op": "ping"}
    {"id": 4, "op": "stats"}
    {"id": 5, "op": "reload", "path": "new-index.npz"}

Queries may ask for the ε-relaxed approximate mode (see
``docs/cascade.md``): ``epsilon`` is a number in ``[0, 1)``, checked by
the same :func:`repro.cascade.validate_epsilon` as the Python API and the
CLI; a malformed one is a typed ``invalid_request`` rejection before
admission::

    {"id": 14, "op": "query", "theta": 8.0, "k": 5, "epsilon": 0.05}

Approximate responses (``epsilon > 0``) add ``"approximate": true`` and
the effective ``"epsilon"``; exact responses stay byte-identical.

Mutation ops are *versioned* — they carry ``"v": 1`` (optional today;
any other version is rejected with ``invalid_request`` so the wire can
evolve without silent misreads) and need a deployment opened with
``--mutable``; on a read-only deployment they come back as typed
``invalid_request`` rejections::

    {"id": 6, "op": "insert", "v": 1, "graph": {...}, "features": [...]}
    {"id": 7, "op": "delete", "v": 1, "gid": 42}
    {"id": 8, "op": "update", "v": 1, "gid": 42, "graph": {...},
     "features": [...]}
    {"id": 9, "op": "compact", "v": 1}

Durability admin ops (PR 9) ride the same wire: ``checkpoint`` folds the
mutation journal into a fresh base generation (mutable + journaled
deployments only), ``backup`` captures a crash-consistent snapshot of
the database (or journal + base) into the directory named by ``path``,
``scrub`` runs one verification cycle over the deployment's artifacts,
and ``scrub_status`` reports the background scrubber's counters::

    {"id": 10, "op": "checkpoint"}
    {"id": 11, "op": "backup", "path": "backups/2026-08-08"}
    {"id": 12, "op": "scrub"}
    {"id": 13, "op": "scrub_status"}

Responses echo the ``id`` and carry either ``result`` or a typed
``error``::

    {"id": 1, "ok": true, "result": {"answer": [3, 17], "gains": [9, 4],
     "pi": 0.81, "num_relevant": 16, "theta": 8.0, "degraded": false,
     "degradations": {}, "generation": 0}}
    {"id": 6, "ok": false,
     "error": {"code": "overloaded", "message": "...", "retry_after_s": 0.4}}

Every deployment shape (single index, shard bundle, mutable, replicated)
answers with the same bytes.  A replicated query that finds no live
replica waits for the supervisor's restart (at most the cluster's op
timeout, never past the query's deadline); when none comes it answers
``query_failed`` with ``"exception_type": "ShardUnavailableError"``.

Oversized lines (``max_request_bytes``), non-JSON, unknown ops and
invalid parameters are rejected *before admission* with
``invalid_request`` — a malformed client cannot occupy a queue slot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.cascade import EpsilonError, validate_epsilon
from repro.service.errors import InvalidRequest, ServiceError

#: Ops the service understands.
OPS = frozenset({
    "query", "ping", "stats", "reload",
    "insert", "delete", "update", "compact",
    "checkpoint", "backup", "scrub", "scrub_status",
})

#: Ops that mutate the index (need a ``mutable=True`` deployment).
MUTATION_OPS = frozenset({"insert", "delete", "update", "compact"})

#: The mutation-protocol version this build speaks.
PROTOCOL_VERSION = 1

#: Default cap on one request line; oversized requests are shed at parse.
MAX_REQUEST_BYTES = 64 * 1024


@dataclass(frozen=True)
class QueryRequest:
    """One admitted unit of work (already validated)."""

    id: object = None
    op: str = "query"
    theta: float | None = None
    k: int | None = None
    quantile: float = 0.75
    dims: tuple[int, ...] | None = None
    seed: int | None = None
    timeout_ms: float | None = None
    path: str | None = None  # reload target (defaults to the watch path)
    v: int = PROTOCOL_VERSION  # mutation-protocol version
    gid: int | None = None  # delete/update target
    graph: dict | None = None  # insert/update payload
    features: tuple[float, ...] | None = None  # insert/update payload
    epsilon: float = 0.0  # approximate-mode relaxation
    extra: dict = field(default_factory=dict, compare=False)


def parse_request(line: str, *, max_bytes: int = MAX_REQUEST_BYTES) -> QueryRequest:
    """Parse and validate one request line; raises :class:`InvalidRequest`."""
    raw = line.strip()
    if len(raw.encode("utf-8", errors="replace")) > max_bytes:
        raise InvalidRequest(
            f"request exceeds {max_bytes} bytes; split or shrink it"
        )
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as error:
        raise InvalidRequest(f"request is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise InvalidRequest("request must be a JSON object")

    op = payload.get("op", "query")
    if op not in OPS:
        raise InvalidRequest(f"unknown op {op!r}; supported: {sorted(OPS)}")
    request_id = payload.get("id")

    theta = _number(payload, "theta")
    k = _number(payload, "k")
    quantile = _number(payload, "quantile")
    timeout_ms = _number(payload, "timeout_ms")
    seed = _number(payload, "seed")
    if op == "query":
        if theta is None or theta <= 0:
            raise InvalidRequest("query needs a positive numeric 'theta'")
        if k is None or int(k) < 1:
            raise InvalidRequest("query needs an integer 'k' >= 1")
        if quantile is not None and not (0.0 < quantile < 1.0):
            raise InvalidRequest("'quantile' must be in (0, 1)")
    if timeout_ms is not None and timeout_ms < 0:
        raise InvalidRequest("'timeout_ms' must be >= 0")

    dims = payload.get("dims")
    if dims is not None:
        if not isinstance(dims, list) or not all(
            isinstance(d, int) and not isinstance(d, bool) for d in dims
        ):
            raise InvalidRequest("'dims' must be a list of integers")
        dims = tuple(dims)

    path = payload.get("path")
    if path is not None and not isinstance(path, str):
        raise InvalidRequest("'path' must be a string")
    if op == "backup" and not path:
        raise InvalidRequest(
            "backup needs a 'path' — the directory the snapshot is "
            "captured into (must not already exist)"
        )

    version = payload.get("v", PROTOCOL_VERSION)
    if op in MUTATION_OPS:
        if (
            isinstance(version, bool)
            or not isinstance(version, int)
            or version != PROTOCOL_VERSION
        ):
            raise InvalidRequest(
                f"unsupported mutation-protocol version {version!r}; this "
                f"build speaks v{PROTOCOL_VERSION}"
            )
    gid, graph, features = _validate_mutation_fields(op, payload)
    try:
        epsilon = validate_epsilon(payload.get("epsilon"))
    except EpsilonError as error:
        raise InvalidRequest(str(error)) from error

    known = {
        "id", "op", "theta", "k", "quantile", "dims", "seed",
        "timeout_ms", "path", "v", "gid", "graph", "features",
        "epsilon",
    }
    extra = {key: payload[key] for key in payload.keys() - known}
    return QueryRequest(
        id=request_id,
        op=op,
        theta=None if theta is None else float(theta),
        k=None if k is None else int(k),
        quantile=0.75 if quantile is None else float(quantile),
        dims=dims,
        seed=None if seed is None else int(seed),
        timeout_ms=timeout_ms,
        path=path,
        v=PROTOCOL_VERSION if not isinstance(version, int) else int(version),
        gid=gid,
        graph=graph,
        features=features,
        epsilon=epsilon,
        extra=extra,
    )


def _validate_mutation_fields(op: str, payload: dict):
    """Validate the op-specific mutation fields before admission."""
    gid = payload.get("gid")
    graph = payload.get("graph")
    features = payload.get("features")
    if op in ("delete", "update"):
        if isinstance(gid, bool) or not isinstance(gid, int) or gid < 0:
            raise InvalidRequest(f"{op} needs a non-negative integer 'gid'")
    if op in ("insert", "update"):
        if not isinstance(graph, dict):
            raise InvalidRequest(
                f"{op} needs a 'graph' object (see repro.graphs.io "
                f"graph_to_dict for the shape)"
            )
        if not isinstance(features, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool)
            for x in features
        ):
            raise InvalidRequest(f"{op} needs a 'features' list of numbers")
        features = tuple(float(x) for x in features)
    else:
        graph = None
        features = None
    if op not in ("delete", "update"):
        gid = None
    return gid, graph, features


def _number(payload: dict, key: str) -> float | None:
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidRequest(f"{key!r} must be a number, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------
def ok_response(request_id, result: dict) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id, error: Exception) -> dict:
    if isinstance(error, ServiceError):
        wire = error.to_wire()
    else:  # pragma: no cover - defensive; workers wrap everything typed
        wire = {"code": "service_error", "message": str(error)}
    return {"id": request_id, "ok": False, "error": wire}


def encode(response: dict) -> str:
    """One response as one line (compact separators, no trailing space)."""
    return json.dumps(response, separators=(",", ":"))
