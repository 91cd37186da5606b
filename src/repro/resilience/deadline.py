"""Deadline/budget propagation for distance evaluation.

A :class:`Deadline` carries a wall-clock budget (seconds) and/or a per-call
A* expansion budget through the query stack: callers pass it to
``QuerySession.query`` (or install it ambiently with
:func:`deadline_scope`), a replicated deployment ships it to its shard
workers on the session ``open`` frame, and :class:`~repro.ged.ExactGED`
checks it during the A* search.  Builds never see one
(:func:`unbudgeted`).  On expiry the exact solver raises
:class:`BudgetExceeded` and *degrades* to a polynomial upper bound instead
of stalling — see the degradation tiers in ``docs/resilience.md``.

Every degradation is recorded on the deadline itself (``degradations`` is
a ``{kind: count}`` dict), mirrored into :mod:`repro.obs` counters
(``resilience.degraded.<kind>``), and merged back from replica workers,
so a result computed under pressure is *flagged*, never silently wrong.

Expiry is an absolute ``time.monotonic()`` instant, which is comparable
across forked worker processes (same system clock), so a deadline shipped
to a replica worker means the same moment everywhere.
"""

from __future__ import annotations

import contextlib
import threading
import time

from repro import obs
from repro.utils.validation import require


class BudgetExceeded(Exception):
    """Raised inside a budgeted computation when its deadline expires.

    ``reason`` is ``"time"`` (wall-clock budget exhausted) or
    ``"expansions"`` (A* expansion budget exhausted with time remaining);
    the degradation picks its fallback from it.
    """

    def __init__(self, reason: str, message: str | None = None):
        super().__init__(message or f"budget exceeded ({reason})")
        self.reason = reason


class Deadline:
    """A time and/or expansion budget with degradation accounting.

    Parameters
    ----------
    seconds:
        Wall-clock budget from *now*; ``None`` for no time limit.
    expansion_limit:
        Maximum A* state expansions per exact-GED call; ``None`` for no
        expansion limit.  At least one budget must be set.
    """

    def __init__(self, seconds: float | None = None, *, expansion_limit: int | None = None):
        require(
            seconds is not None or expansion_limit is not None,
            "Deadline needs a time budget (seconds) or an expansion_limit",
        )
        if seconds is not None:
            require(float(seconds) >= 0.0, f"seconds must be >= 0, got {seconds}")
        if expansion_limit is not None:
            require(int(expansion_limit) >= 1,
                    f"expansion_limit must be >= 1, got {expansion_limit}")
        self.seconds = None if seconds is None else float(seconds)
        self.expansion_limit = None if expansion_limit is None else int(expansion_limit)
        self._expires_at = (
            None if self.seconds is None else time.monotonic() + self.seconds
        )
        #: ``{degradation kind: count}`` accumulated under this deadline.
        self.degradations: dict[str, int] = {}

    @classmethod
    def from_timeout_ms(
        cls, milliseconds: float, *, expansion_limit: int | None = None
    ) -> "Deadline":
        """Millisecond-budget constructor shared by the CLI
        (``--deadline-ms``) and the service admission path."""
        require(
            float(milliseconds) >= 0.0,
            f"timeout must be >= 0 ms, got {milliseconds}",
        )
        return cls(float(milliseconds) / 1000.0, expansion_limit=expansion_limit)

    # ------------------------------------------------------------------
    # Budget checks
    # ------------------------------------------------------------------
    def remaining(self) -> float | None:
        """Seconds left, clamped at ``0.0`` once expired; ``None`` with no
        time budget.  Never negative, so callers can use it directly as a
        wait timeout without re-clamping."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - time.monotonic())

    def expired(self) -> bool:
        """True once the wall-clock budget is exhausted."""
        return (
            self._expires_at is not None
            and time.monotonic() >= self._expires_at
        )

    # ------------------------------------------------------------------
    # Degradation accounting
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        return bool(self.degradations)

    def record_degradation(self, kind: str) -> None:
        """Note one budget-forced fallback (e.g. ``'ged.exact.bipartite'``)."""
        self.degradations[kind] = self.degradations.get(kind, 0) + 1
        obs.counter("resilience.degradations")
        obs.counter(f"resilience.degraded.{kind}")

    def merge_degradations(self, other: dict) -> None:
        """Fold a replica worker's degradation counts in."""
        for kind, count in other.items():
            self.degradations[kind] = self.degradations.get(kind, 0) + int(count)

    # ------------------------------------------------------------------
    # Cross-process shipping
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """JSON-able form for the replica ``open`` frame (absolute
        monotonic expiry)."""
        return {
            "seconds": self.seconds,
            "expansion_limit": self.expansion_limit,
            "expires_at": self._expires_at,
        }

    @classmethod
    def from_state(cls, state: dict) -> "Deadline":
        """Rebuild a worker-side deadline sharing the parent's expiry."""
        deadline = cls.__new__(cls)
        deadline.seconds = state["seconds"]
        deadline.expansion_limit = state["expansion_limit"]
        deadline._expires_at = state["expires_at"]
        deadline.degradations = {}
        return deadline

    def __repr__(self) -> str:
        remaining = self.remaining()
        clock = "none" if remaining is None else f"{remaining:.3f}s"
        return (
            f"Deadline(remaining={clock}, expansion_limit={self.expansion_limit}, "
            f"degradations={sum(self.degradations.values())})"
        )


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


def degradation_mark() -> int | None:
    """How many degradations the active deadline has recorded (``None``
    without one).  A computation that moves it returned upper bounds,
    which no cache may keep: the engine's pair cache and the vantage
    frame's rows are stored only when it has not moved."""
    deadline = current_deadline()
    return None if deadline is None else sum(deadline.degradations.values())


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

    Builds run under it: an index stores the distances it computes, and a
    budget-forced upper bound stored as a coordinate would unsound
    Theorem 4's pruning for every later query.
    """
    stack = _stack()
    stack.append(None)
    try:
        yield
    finally:
        stack.pop()
