"""Sharded NB-Index bundles: S artifacts on disk, one index in memory.

Partition a database into S shards (:mod:`repro.shard.partition`), write
each shard's rows of one bundle-wide vantage frame behind a checksummed
manifest (:func:`build_shards`), and serve the bundle as one NB-Index
over that frame (:class:`ShardedIndex`), whose answers are bit-identical
to the single-index engine's for any S and any partitioner.  S is the
unit of build, compaction, heal and backup, and of replica workers
(:mod:`repro.replica`), which serve one :class:`ShardFrontier` each to
the multi-frontier coordinator.
"""

from repro.shard.build import build_shards
from repro.shard.coordinator import ShardedQuerySession
from repro.shard.errors import ManifestError, PartitionError, ShardError
from repro.shard.frontier import ShardFrontier
from repro.shard.manifest import ShardEntry, ShardManifest
from repro.shard.partition import (
    PARTITIONERS,
    ClusteringPartitioner,
    HashPartitioner,
    Partition,
    get_partitioner,
)
from repro.shard.sharded import ShardedIndex

__all__ = [
    "build_shards",
    "ShardedIndex",
    "ShardedQuerySession",
    "ShardFrontier",
    "ShardManifest",
    "ShardEntry",
    "Partition",
    "HashPartitioner",
    "ClusteringPartitioner",
    "PARTITIONERS",
    "get_partitioner",
    "ShardError",
    "PartitionError",
    "ManifestError",
]
