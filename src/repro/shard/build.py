"""Build a sharded NB-Index bundle: partition, embed once, manifest.

The **vantage frame** is global: one vantage set (global ids, recorded in
the manifest) is drawn for the whole bundle and every graph embedded
against it once — Theorem 4 holds for any fixed vantage set.  Each shard
file is storage, not an index: its members' rows of that frame and the
frame's vantage ids, in the checksummed container
(:func:`~repro.index.persistence.save_frame_rows`).  The manifest holds
everything else — members, checksums, the database's checksum — and
loading the bundle reads the rows back into one
:class:`~repro.index.vantage.VantageEmbedding`.

The bundle is a deterministic function of (database, distance, S,
partitioner, seed).  :func:`write_shard` is the one way a shard artifact
is made — by the build, by compaction and by the scrubber's heal — and
it costs no distance: the frame rows are all a shard holds.
"""

from __future__ import annotations

import time
import zlib
from pathlib import Path

import numpy as np

from repro import obs
from repro.graphs.database import GraphDatabase
from repro.index.persistence import save_frame_rows
from repro.index.vantage import VantageEmbedding, select_vantage_points
from repro.resilience.deadline import unbudgeted
from repro.shard.manifest import ShardEntry, ShardManifest, database_checksum
from repro.shard.partition import get_partitioner
from repro.utils.validation import require

MANIFEST_NAME = "manifest.json"


def write_shard(path: Path, frame: VantageEmbedding, members) -> bytes:
    """Write the shard of ``members``' rows of the bundle's ``frame`` to
    ``path``; returns the bytes on disk, whose crc32 the manifest records.
    Build, compaction and the scrubber's heal all write shards here, so a
    rebuilt shard is the built one, and none of them reads the bytes back
    through the checksum container: a caller that must not commit a torn
    write verifies them itself."""
    save_frame_rows(path, frame.vantage_indices, frame.coords[members])
    return Path(path).read_bytes()


def build_shards(
    database: GraphDatabase,
    distance,
    *,
    num_shards: int,
    out_dir: str | Path,
    partitioner: str = "hash",
    num_vantage_points: int = 20,
    branching: int = 8,
    thresholds=None,
    seed: int = 0,
) -> Path:
    """Write S shard artifacts plus a manifest under ``out_dir``.

    Returns the manifest path.  ``branching`` and ``thresholds`` are
    accepted and ignored, as by :meth:`NBIndex.build` (the benchmark's
    build parameters still pass them).
    """
    require(len(database) > 0, "cannot shard an empty database")
    require(
        1 <= num_shards <= len(database),
        f"num_shards {num_shards} not in 1..{len(database)}",
    )
    from repro.engine import DistanceEngine

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    with unbudgeted(), obs.span(
        "shard.build", n=len(database), shards=num_shards,
        partitioner=partitioner,
    ) as build_span:
        engine = DistanceEngine(distance, graphs=database.graphs)
        with obs.span("shard.partition", strategy=partitioner):
            partition = get_partitioner(partitioner).assign(
                database, num_shards, seed=seed, distance=engine
            )

        # Child S of the root seeds the frame: the key a bundle has always
        # used, so frames stay what they were when children 0..S−1 still
        # seeded per-shard trees.
        frame_seed = np.random.SeedSequence(seed, spawn_key=(num_shards,))
        with obs.span("shard.frame"):
            vantage = select_vantage_points(
                database.graphs, min(num_vantage_points, len(database)),
                rng=np.random.default_rng(frame_seed),
            )
            frame = VantageEmbedding(database.graphs, vantage, engine)
        artifacts = [out_dir / f"shard-{s:03d}.npz" for s in range(num_shards)]

        def build_one(shard_id: int) -> tuple[float, int]:
            """One shard's artifact: its write time and its crc32."""
            members = partition.members(shard_id)
            with obs.span("shard.build_one", shard=shard_id, n=len(members)):
                shard_started = time.perf_counter()
                raw = write_shard(artifacts[shard_id], frame, members)
                return time.perf_counter() - shard_started, zlib.crc32(raw)

        # A shard write costs no distance: nothing left to fan out.
        built = [build_one(s) for s in range(num_shards)]
        entries = [
            ShardEntry(
                shard_id=shard_id,
                path=artifact.name,
                checksum=crc,
                num_graphs=len(partition.members(shard_id)),
            )
            for shard_id, (artifact, (_, crc)) in enumerate(
                zip(artifacts, built)
            )
        ]

        manifest = ShardManifest(
            num_shards=num_shards,
            num_graphs=len(database),
            partitioner=partitioner,
            seed=seed,
            assignments=partition.assignments,
            database_checksum=database_checksum(database),
            shards=tuple(entries),
            frame=tuple(frame.vantage_indices),
            build={
                "num_vantage_points": num_vantage_points,
                "shard_seconds": [round(seconds, 6) for seconds, _ in built],
                "total_seconds": round(time.perf_counter() - started, 6),
            },
        )
        manifest_path = out_dir / MANIFEST_NAME
        manifest.save(manifest_path)
        build_span.set(seconds=round(time.perf_counter() - started, 3))
    return manifest_path
