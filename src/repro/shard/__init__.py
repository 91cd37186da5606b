"""Sharded NB-Index: partitioned builds + scatter-gather distributed greedy.

Partition a database into S shards (:mod:`repro.shard.partition`), build an
NB-Index per shard in one bundle-wide vantage frame behind a checksummed
manifest (:func:`build_shards`), and query the bundle through a coordinator
(:class:`ShardedIndex` / :mod:`repro.shard.coordinator`) whose answers are
bit-identical to the single-index engine for any S and any partitioner.
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
