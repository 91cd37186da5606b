"""repro.service — a robust serving layer over the NB-Index.

Everything below :class:`QueryService` exists to keep one promise: a
long-lived process over :func:`repro.open_database` /
:func:`repro.open_index` / ``NBIndex.query`` that *stays up* — under
overload (bounded admission + load shedding), under index swaps
(validated, latched hot reload with rollback), and under poisoned
queries (journaled crash, typed response, surviving worker).  Every
answer it gives is exact and certified; a request whose deadline runs
out is answered ``deadline_expired`` instead.

Quick start, in-process::

    from repro.service import QueryService, ServiceConfig, QueryRequest

    with QueryService(index, config=ServiceConfig(max_concurrency=2)) as svc:
        response = svc.call(QueryRequest(id=1, theta=8.0, k=5))

or over a transport: ``repro serve db.jsonl --index idx.npz`` speaks
line-delimited JSON on stdin/stdout (or ``--tcp HOST:PORT``) — see
``docs/service.md`` for the protocol and tuning guidance.
"""

from repro.service.admission import AdmissionController, Ticket
from repro.service.crashlog import CrashJournal
from repro.service.errors import (
    DeadlineExpired,
    InvalidRequest,
    Overloaded,
    QueryFailed,
    ReloadFailed,
    ServiceClosed,
    ServiceError,
)
from repro.service.latch import ReadWriteLatch
from repro.service.protocol import (
    MAX_REQUEST_BYTES,
    QueryRequest,
    encode,
    error_response,
    ok_response,
    parse_request,
)
from repro.service.reload import IndexManager
from repro.service.server import (
    QueryService,
    ServiceConfig,
    serve_lines,
    serve_tcp,
)

__all__ = [
    "QueryService",
    "ServiceConfig",
    "serve_lines",
    "serve_tcp",
    "AdmissionController",
    "Ticket",
    "IndexManager",
    "ReadWriteLatch",
    "CrashJournal",
    "QueryRequest",
    "parse_request",
    "encode",
    "ok_response",
    "error_response",
    "MAX_REQUEST_BYTES",
    "ServiceError",
    "Overloaded",
    "ServiceClosed",
    "InvalidRequest",
    "DeadlineExpired",
    "QueryFailed",
    "ReloadFailed",
]
