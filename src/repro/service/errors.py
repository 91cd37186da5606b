"""Typed errors the query service answers with.

Every failure a client can see maps to exactly one exception type with a
stable wire ``code``, so callers branch on semantics ("back off and
retry" vs "fix your request" vs "the query itself blew up") instead of
parsing messages.  All of them derive from :class:`ServiceError`; none of
them ever escapes a worker thread — the service catches, journals where
appropriate, and answers with the typed error response.
"""

from __future__ import annotations


class ServiceError(Exception):
    """Base class for failures the service reports to a client."""

    #: Stable machine-readable identifier used on the wire.
    code = "service_error"

    def to_wire(self) -> dict:
        """The JSON-safe ``error`` object for a protocol response."""
        return {"code": self.code, "message": str(self)}


class Overloaded(ServiceError):
    """Load shed: the bounded queue is full (or draining squeezed the
    request out), so the service rejects instead of queueing unboundedly.

    ``retry_after_s`` is the admission controller's estimate of when a
    retry is likely to be admitted — queue depth times the recent average
    service time, spread over the worker pool.
    """

    code = "overloaded"

    def __init__(self, message: str, *, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)

    def to_wire(self) -> dict:
        wire = super().to_wire()
        wire["retry_after_s"] = round(self.retry_after_s, 3)
        return wire


class ServiceClosed(ServiceError):
    """The service is draining or stopped; no new work is admitted."""

    code = "closed"


class InvalidRequest(ServiceError):
    """The request is malformed: oversized, not JSON, or semantically
    invalid (unknown op, non-positive theta/k, ...)."""

    code = "invalid_request"


class DeadlineExpired(ServiceError):
    """The request's deadline passed — in the queue, or mid-query, where
    the next distance batch or greedy round cancels it.  No partial
    answer is given: an answer is exact or not returned."""

    code = "deadline_expired"


class QueryFailed(ServiceError):
    """The query raised inside a worker.  The worker survives; the
    traceback is journaled to the crash log and the client gets this."""

    code = "query_failed"

    def __init__(self, message: str, *, exception_type: str = "Exception"):
        super().__init__(message)
        self.exception_type = exception_type

    def to_wire(self) -> dict:
        wire = super().to_wire()
        wire["exception_type"] = self.exception_type
        return wire


class ReloadFailed(ServiceError):
    """A hot-reload candidate failed validation (corrupt file, format
    skew, wrong database); the previous index stays installed."""

    code = "reload_failed"
