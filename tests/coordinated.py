"""The multi-frontier coordinator over a shard bundle, for tests.

A :class:`~repro.shard.ShardedIndex` queries one frontier over its whole
frame, in process and in every replica worker; the multi-frontier loop of
:func:`repro.index.coordinator.run_greedy` runs in production only beside
a memtable (a mutable base and its un-indexed graphs).
:class:`CoordinatedBundle` drives that loop over S frontiers, one
:class:`~repro.shard.frontier.ShardFrontier` per shard: each owns its
shard's members of the one loaded bundle index and sees every other graph
as a stranger, through the same frame and engine — S > 1 frontiers, each
with many strangers, which a memtable rarely supplies.  Tests referee
the coordinator's foreign tiers with it — answers, bounds, tie-breaks and
tier accounting.
"""

from __future__ import annotations

import numpy as np

from repro.index.frontier import MemberState
from repro.index.nbindex import QuerySession
from repro.shard import ShardedIndex, build_shards
from repro.shard.frontier import ShardFrontier


class CoordinatedBundle:
    """S member subsets of one bundle index behind the ``QuerySession``
    hooks."""

    _query_layer = "shard"

    def __init__(self, index, members):
        #: The bundle's one NB-Index over its frame.
        self.index = index
        self.database = index.database
        self.engine = index.engine
        #: Per-shard graph ids, ascending.
        self.members = [np.asarray(m, dtype=np.int64) for m in members]
        self.shard_of = np.empty(len(self.database), dtype=np.int64)
        for s, m in enumerate(self.members):
            self.shard_of[m] = s

    @classmethod
    def load(cls, manifest_path, database, distance) -> "CoordinatedBundle":
        bundle = ShardedIndex.load(manifest_path, database, distance)
        manifest = bundle.manifest
        return cls(
            bundle.index,
            [manifest.members(s) for s in range(manifest.num_shards)],
        )

    @classmethod
    def build(cls, database, distance, *, out_dir, **build_kwargs):
        return cls.load(
            build_shards(database, distance, out_dir=out_dir, **build_kwargs),
            database, distance,
        )

    def session(self, query_fn) -> QuerySession:
        return QuerySession(self, query_fn)

    def query(self, query_fn, theta, k, **kwargs):
        return self.session(query_fn).query(theta, k, **kwargs)

    def frontiers(self, session, theta, stats, runtime) -> list:
        """One ShardFrontier per shard; each shard's relevant members are
        kept on the session across θ refinements."""
        return [
            ShardFrontier(
                session.cached(s, lambda s=s: MemberState(
                    self.index,
                    np.intersect1d(session.relevant, self.members[s]),
                    session.universe,
                )),
                theta, stats, runtime, global_engine=self.engine,
            )
            for s in range(len(self.members))
        ]

    # -- QuerySession hooks ---------------------------------------------
    def _distance_calls(self) -> int:
        return self.engine.calls

    def _run_query(self, run):
        frontiers = self.frontiers(
            run.session, run.theta, run.stats, run.runtime
        )
        return run.greedy(
            frontiers, lambda gid: frontiers[int(self.shard_of[gid])]
        )


def cold(index) -> None:
    """Drop every in-process pair cache behind ``index``."""
    for engine in (
        getattr(index, "engine", None),
        *(() if getattr(index, "base", None) is None else (index.base.engine,)),
    ):
        if engine is not None:
            engine._cache.clear()
