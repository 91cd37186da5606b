"""Circuit breaker around the distance backends.

A wedged replica fleet or an exact-GED backend that degrades on every
single call does not just slow one query — it stalls the bounded queue
behind it and turns overload into an outage.  The breaker watches query
outcomes and, once the backend looks unhealthy, fails *fast*: queries run
**bound-only** (an already-expired :class:`~repro.resilience.Deadline`
forces every exact edit distance straight down the degradation ladder to
its polynomial upper bound) instead of waiting on a backend that will not
answer.  Bound-only answers are sound — upper bounds can only
under-report π — and are flagged on the response.

State machine (see ``docs/service.md`` for the diagram)::

    CLOSED --failures/degradations over threshold--> OPEN
    OPEN   --cooldown elapsed--> HALF_OPEN
    HALF_OPEN --probe succeeds--> CLOSED
    HALF_OPEN --probe fails/degrades--> OPEN (fresh cooldown)

* CLOSED: all queries run normally; outcomes are recorded.
* OPEN: every query is served bound-only until ``cooldown_s`` elapses.
* HALF_OPEN: exactly one in-flight probe runs normally; everyone else
  stays bound-only until the probe reports back.

The trip conditions are (a) ``failure_threshold`` consecutive raised
queries, (b) ``degradation_threshold`` consecutive deadline-degraded
queries, or (c) error rate ≥ ``error_rate_threshold`` over the last
``window`` outcomes.  Bound-only executions are *not* recorded — the
breaker only learns from real attempts.

The clock is injectable so tests drive the cooldown deterministically.
"""

from __future__ import annotations

import collections
import threading
import time
from dataclasses import dataclass

from repro import obs
from repro.utils.validation import require

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Gauge encoding for ``service.breaker_state``.
_STATE_GAUGE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}

#: What :meth:`CircuitBreaker.admit` tells the caller to do.
NORMAL = "normal"          # run the query with its own deadline
BOUND_ONLY = "bound_only"  # fail fast: expired deadline, upper bounds only
PROBE = "probe"            # half-open trial run; report the outcome


@dataclass(frozen=True)
class BreakerConfig:
    """Trip thresholds and recovery pacing."""

    failure_threshold: int = 3
    degradation_threshold: int = 5
    error_rate_threshold: float = 0.5
    window: int = 20
    cooldown_s: float = 5.0

    def __post_init__(self):
        require(self.failure_threshold >= 1, "failure_threshold must be >= 1")
        require(
            self.degradation_threshold >= 1,
            "degradation_threshold must be >= 1",
        )
        require(
            0.0 < self.error_rate_threshold <= 1.0,
            "error_rate_threshold must be in (0, 1]",
        )
        require(self.window >= 2, "window must be >= 2")
        require(self.cooldown_s >= 0.0, "cooldown_s must be >= 0")


class CircuitBreaker:
    """Thread-safe closed → open → half-open breaker."""

    def __init__(self, config: BreakerConfig | None = None, *, clock=time.monotonic):
        self.config = config or BreakerConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._opened_at = 0.0
        self._probe_inflight = False
        self._consecutive_failures = 0
        self._consecutive_degradations = 0
        self._outcomes: collections.deque[bool] = collections.deque(
            maxlen=self.config.window
        )
        self.opened_count = 0
        self.bound_only_served = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open_locked()
            return self._state

    def admit(self) -> str:
        """How the next query should run: NORMAL, BOUND_ONLY, or PROBE."""
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == CLOSED:
                return NORMAL
            if self._state == HALF_OPEN and not self._probe_inflight:
                self._probe_inflight = True
                obs.counter("service.breaker.probes")
                return PROBE
            self.bound_only_served += 1
            obs.counter("service.breaker.bound_only")
            return BOUND_ONLY

    def _maybe_half_open_locked(self) -> None:
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.config.cooldown_s
        ):
            self._set_state_locked(HALF_OPEN)
            self._probe_inflight = False

    # ------------------------------------------------------------------
    # Outcome recording (NORMAL and PROBE executions only)
    # ------------------------------------------------------------------
    def record_success(self, *, degraded: bool = False, probe: bool = False) -> None:
        """A query completed.  ``degraded=True`` means its deadline forced
        upper-bound fallbacks — success for the client, but a backend
        health signal for the breaker."""
        with self._lock:
            if probe:
                self._probe_inflight = False
                if degraded:
                    self._trip_locked()  # the backend is still degrading
                    return
                self._reset_locked()
                self._set_state_locked(CLOSED)
                obs.counter("service.breaker.closed")
                return
            self._consecutive_failures = 0
            self._outcomes.append(True)
            if degraded:
                self._consecutive_degradations += 1
                if (
                    self._consecutive_degradations
                    >= self.config.degradation_threshold
                ):
                    self._trip_locked()
            else:
                self._consecutive_degradations = 0

    def record_failure(self, *, probe: bool = False) -> None:
        """A query raised (fleet wedged, backend exploded, ...)."""
        with self._lock:
            if probe:
                self._probe_inflight = False
                self._trip_locked()
                return
            self._consecutive_failures += 1
            self._outcomes.append(False)
            failures = sum(1 for ok in self._outcomes if not ok)
            window_full = len(self._outcomes) >= self.config.window
            if (
                self._consecutive_failures >= self.config.failure_threshold
                or (
                    window_full
                    and failures / len(self._outcomes)
                    >= self.config.error_rate_threshold
                )
            ):
                self._trip_locked()

    # ------------------------------------------------------------------
    def _trip_locked(self) -> None:
        self._opened_at = self._clock()
        self._probe_inflight = False
        if self._state != OPEN:
            self.opened_count += 1
            obs.counter("service.breaker.opened")
        self._set_state_locked(OPEN)

    def _reset_locked(self) -> None:
        self._consecutive_failures = 0
        self._consecutive_degradations = 0
        self._outcomes.clear()

    def _set_state_locked(self, state: str) -> None:
        self._state = state
        obs.gauge("service.breaker_state", _STATE_GAUGE[state])

    def stats(self) -> dict:
        with self._lock:
            self._maybe_half_open_locked()
            return {
                "state": self._state,
                "opened_count": self.opened_count,
                "bound_only_served": self.bound_only_served,
                "consecutive_failures": self._consecutive_failures,
                "consecutive_degradations": self._consecutive_degradations,
                "window_size": len(self._outcomes),
                "window_failures": sum(1 for ok in self._outcomes if not ok),
            }

    def __repr__(self) -> str:
        return f"CircuitBreaker(state={self.state!r}, opened={self.opened_count})"
