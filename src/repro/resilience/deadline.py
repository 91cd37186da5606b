"""Deadline propagation: cooperative cancellation of a query.

A :class:`Deadline` carries a wall-clock budget through the query stack:
callers pass it to ``QuerySession.query`` (or install it ambiently with
:func:`deadline_scope`), and a replicated deployment ships it to its
workers on the session ``open`` frame.  The query checks it when it
starts, before the distance engine evaluates a batch of misses, once per
greedy round and inside :class:`~repro.ged.ExactGED`'s A* search, and on
expiry :meth:`Deadline.check` raises :class:`BudgetExceeded`, which
nothing on the way out of the query catches.  An answer is therefore
exact or not returned: every cache stores a value only after its batch
has completed, so nothing computed under an expired budget is kept.
Builds never see a deadline (:func:`unbudgeted`).

Expiry is an absolute ``time.monotonic()`` instant, which is comparable
across forked worker processes (same system clock), so a deadline shipped
to a replica worker means the same moment everywhere.
"""

from __future__ import annotations

import contextlib
import threading
import time

from repro.utils.validation import require


class BudgetExceeded(Exception):
    """Raised by :meth:`Deadline.check` once the deadline has expired: the
    query is cancelled and returns nothing."""


class Deadline:
    """A wall-clock budget of ``seconds`` from *now* (``>= 0``)."""

    def __init__(self, seconds: float):
        require(seconds is not None, "Deadline needs a time budget (seconds)")
        require(float(seconds) >= 0.0, f"seconds must be >= 0, got {seconds}")
        self.seconds = float(seconds)
        self._expires_at = time.monotonic() + self.seconds

    @classmethod
    def from_timeout_ms(cls, milliseconds: float) -> "Deadline":
        """Millisecond-budget constructor shared by the CLI
        (``--deadline-ms``) and the service admission path."""
        require(
            float(milliseconds) >= 0.0,
            f"timeout must be >= 0 ms, got {milliseconds}",
        )
        return cls(float(milliseconds) / 1000.0)

    def remaining(self) -> float:
        """Seconds left, clamped at ``0.0`` once expired — never negative,
        so callers can use it directly as a wait timeout."""
        return max(0.0, self._expires_at - time.monotonic())

    def expired(self) -> bool:
        """True once the budget is exhausted."""
        return time.monotonic() >= self._expires_at

    def check(self) -> None:
        """Raise :class:`BudgetExceeded` once the budget is exhausted."""
        if time.monotonic() >= self._expires_at:
            raise BudgetExceeded(
                f"deadline of {self.seconds * 1000.0:g} ms expired"
            )

    def state(self) -> dict:
        """JSON-able form for the replica ``open`` frame (absolute
        monotonic expiry)."""
        return {"seconds": self.seconds, "expires_at": self._expires_at}

    @classmethod
    def from_state(cls, state: dict) -> "Deadline":
        """Rebuild a worker-side deadline sharing the parent's expiry."""
        deadline = cls.__new__(cls)
        deadline.seconds = state["seconds"]
        deadline._expires_at = state["expires_at"]
        return deadline

    def __repr__(self) -> str:
        return f"Deadline(remaining={self.remaining():.3f}s)"


# ---------------------------------------------------------------------------
# Ambient deadline.  The stack is *thread-local*: the query service runs
# concurrent requests on worker threads, each under its own per-request
# deadline, and a shared stack would leak one request's budget into
# another.  Replica workers never rely on the ambient stack — the
# deadline state arrives on the session's ``open`` frame.
# ---------------------------------------------------------------------------
_local = threading.local()


def _stack() -> list[Deadline | None]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def current_deadline() -> Deadline | None:
    """The innermost active deadline *on this thread*, or ``None``."""
    stack = _stack()
    return stack[-1] if stack else None


def check_deadline() -> None:
    """:meth:`Deadline.check` the active deadline, if there is one — one
    thread-local lookup when there is none."""
    stack = getattr(_local, "stack", None)
    if stack and stack[-1] is not None:
        stack[-1].check()


@contextlib.contextmanager
def deadline_scope(deadline: Deadline | None):
    """Install ``deadline`` as the ambient budget for the enclosed work.

    ``deadline_scope(None)`` is a no-op — an enclosing scope (if any)
    stays in effect, so plumbing code can pass its optional deadline
    through unconditionally.
    """
    if deadline is None:
        yield None
        return
    stack = _stack()
    stack.append(deadline)
    try:
        yield deadline
    finally:
        stack.pop()


@contextlib.contextmanager
def unbudgeted():
    """Hide every enclosing deadline from the enclosed work.

    Builds run under it: a build is not a query, and an index cancelled
    half-way by a query's budget would serve no one.
    """
    stack = _stack()
    stack.append(None)
    try:
        yield
    finally:
        stack.pop()
