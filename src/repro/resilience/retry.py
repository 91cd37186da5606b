"""Retry policy for worker restarts.

Capped exponential backoff with multiplicative jitter — the standard shape
for "respawn and try again" loops: the exponent keeps a persistently
failing worker from being hammered, the cap bounds the worst-case stall,
and the jitter de-synchronizes restarts sharing a machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.utils.validation import require


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule; paces :class:`~repro.replica.Supervisor`'s
    restarts of a shard worker that keeps failing to come up.

    ``max_attempts`` counts attempts, the first try included (see
    :meth:`delays`).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.25

    def __post_init__(self):
        require(self.max_attempts >= 1,
                f"max_attempts must be >= 1, got {self.max_attempts}")
        require(self.base_delay >= 0.0, "base_delay must be >= 0")
        require(self.max_delay >= self.base_delay,
                "max_delay must be >= base_delay")
        require(0.0 <= self.jitter <= 1.0, "jitter must be in [0, 1]")

    def delay(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (0-based): capped
        exponential backoff, jittered upward by at most ``jitter``×."""
        base = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        return base * (1.0 + self.jitter * random.random())

    def delays(self):
        """The full backoff schedule: one delay per retry.

        Yields ``max_attempts - 1`` values (the first attempt has no
        preceding sleep), each an independently jittered sample of
        :meth:`delay` for that position.
        """
        for attempt in range(self.max_attempts - 1):
            yield self.delay(attempt)
