"""Sharded entry points of the one query path.

The scatter-gather greedy itself is :func:`repro.index.coordinator.run_greedy`
and the session :class:`repro.index.nbindex.QuerySession`; a sharded query
is that loop over S :class:`~repro.shard.frontier.ShardFrontier` objects
(:meth:`ShardedIndex._run_query <repro.shard.sharded.ShardedIndex._run_query>`).
What remains here are the names ``benchmarks/e2e/trace.py`` patches to book
sharded work under its ``shard`` layer — distinct callables, so a plain
``NBIndex`` query never runs through them.
"""

from __future__ import annotations

from repro.index import coordinator
from repro.index.nbindex import QuerySession


def run_greedy(*args, **kwargs):
    # Pass-through kept only so trace.py's by-name target resolves.
    return coordinator.run_greedy(*args, **kwargs)


class ShardedQuerySession(QuerySession):
    """The session :meth:`ShardedIndex.session` hands out."""

    def query(self, theta: float, k: int, **kwargs):
        # Pass-through: gives trace.py a sharded query entry of its own.
        return super().query(theta, k, **kwargs)
