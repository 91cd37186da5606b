"""The multi-frontier coordinator over a shard bundle, for tests.

A :class:`~repro.shard.ShardedIndex` queries one frontier over its whole
frame, in process and in every replica worker; the multi-frontier loop of
:func:`repro.index.coordinator.run_greedy` runs in production only beside
a memtable (a mutable base and its un-indexed graphs).
:class:`CoordinatedBundle` drives that loop over S frontiers, one
:class:`~repro.shard.frontier.ShardFrontier` per shard artifact loaded
over its sub-database, strangers seen through the bundle's frame and one
global engine — S > 1 frontiers, each with many strangers, which a
memtable rarely supplies.  Tests referee the coordinator's foreign tiers
with it — answers, bounds, tie-breaks and tier accounting.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.engine import DistanceEngine
from repro.index.frontier import MemberState
from repro.index.nbindex import QuerySession
from repro.index.persistence import load_index
from repro.shard import build_shards
from repro.shard.frontier import ShardFrontier
from repro.shard.manifest import ShardManifest


class CoordinatedBundle:
    """S per-shard NB-Indexes behind the ``QuerySession`` hooks."""

    _query_layer = "shard"

    def __init__(self, database, distance, shards, members, frame):
        self.database = database
        #: Per-shard NB-Indexes over their sub-databases (local ids).
        self.shards = list(shards)
        #: Per-shard global ids, ascending (local id i is the i-th).
        self.members = [np.asarray(m, dtype=np.int64) for m in members]
        self.frame = frame
        self.engine = DistanceEngine(distance, graphs=database.graphs)
        self.shard_of = np.empty(len(database), dtype=np.int64)
        for s, m in enumerate(self.members):
            self.shard_of[m] = s

    @classmethod
    def load(cls, manifest_path, database, distance) -> "CoordinatedBundle":
        manifest_path = Path(manifest_path)
        manifest = ShardManifest.load(manifest_path)
        base = manifest_path.parent
        members = [manifest.members(s) for s in range(manifest.num_shards)]
        shards = [
            load_index(
                manifest.artifact_path(s, base),
                database.subset([int(i) for i in m]), distance,
                manifest.read_artifact(s, base),
            )
            for s, m in enumerate(members)
        ]
        return cls(
            database, distance, shards, members, manifest.load_frame(base)
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
        """One ShardFrontier per shard artifact; each shard's member state
        is kept on the session across θ refinements."""
        return [
            ShardFrontier(
                session.cached(s, lambda s=s: MemberState(
                    self.shards[s], self.members[s], session.relevant,
                    session.universe,
                )),
                theta, stats, runtime,
                global_engine=self.engine, frame=self.frame,
            )
            for s in range(len(self.shards))
        ]

    # -- QuerySession hooks ---------------------------------------------
    def _distance_calls(self) -> int:
        return self.engine.calls + sum(s.engine.calls for s in self.shards)

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
        *(shard.engine for shard in getattr(index, "shards", ())),
        *(() if getattr(index, "base", None) is None else (index.base.engine,)),
    ):
        if engine is not None:
            engine._cache.clear()
