"""Build a sharded NB-Index bundle: partition, build per shard, manifest.

Each shard gets its own NB-Tree and π̂ columns over the *sub-database* of
its member graphs, persisted with the ordinary checksummed
:func:`~repro.index.persistence.save_index` artifact — a shard file has
the format of a single-index file and loads with the same code.

Three things are deliberately global:

* the **vantage frame**: one vantage set (global ids, recorded in the
  manifest) is drawn for the whole bundle and every graph embedded against
  it once — Theorem 4 holds for any fixed vantage set, so every shard sees
  every graph through :class:`~repro.index.vantage.VantageFrame` rows;
* the **threshold ladder** is computed once over the whole database and
  passed to every shard build, so π̂ bounds of different shards are
  evaluated at identical rungs and the coordinator's off-ladder check has
  one answer for the whole bundle;
* **build seeds** are spawned from one root
  :class:`numpy.random.SeedSequence`, so the bundle is a deterministic
  function of (database, distance, S, partitioner, seed) and shard builds
  are statistically independent.

:func:`write_shard` is the one way a shard artifact is made — by the
build, by compaction and by the scrubber's heal — and, like
:meth:`NBIndex.build`, it never runs under a deadline: an artifact
stores exact distances only.
"""

from __future__ import annotations

import time
import zlib
from pathlib import Path

import numpy as np

from repro import obs
from repro.graphs.database import GraphDatabase
from repro.index.nbindex import NBIndex
from repro.index.persistence import save_index
from repro.index.pivec import ThresholdLadder, choose_thresholds
from repro.index.vantage import (
    VantageEmbedding,
    VantageFrame,
    select_vantage_points,
)
from repro.resilience.deadline import unbudgeted
from repro.shard.manifest import ShardEntry, ShardManifest, database_checksum
from repro.shard.partition import get_partitioner
from repro.utils.fanout import fan_out
from repro.utils.validation import require

MANIFEST_NAME = "manifest.json"


def write_shard(
    path: Path,
    database: GraphDatabase,
    distance,
    frame: VantageFrame,
    members,
    shard_id: int,
    *,
    seed,
    branching: int,
    ladder: ThresholdLadder,
) -> tuple[NBIndex, bytes]:
    """Build shard ``shard_id`` over its ``members``' rows of the bundle's
    ``frame`` and save it to ``path``; returns the index and the bytes on
    disk, whose crc32 the manifest records.  Build, compaction and the
    scrubber's heal all write shards here — the tree rng is
    :meth:`ShardManifest.shard_rng`, so a rebuilt shard is the built one —
    and none of them reads the bytes back through the checksum container:
    a caller that must not commit a torn write verifies them itself."""
    with unbudgeted():
        index = NBIndex.from_coords(
            database.subset([int(i) for i in members]), distance,
            frame.vantage_ids, frame.coords[members], branching=branching,
            thresholds=ladder, rng=ShardManifest.shard_rng(seed, shard_id),
        )
    save_index(index, path)
    return index, Path(path).read_bytes()


def build_shards(
    database: GraphDatabase,
    distance,
    *,
    num_shards: int,
    out_dir: str | Path,
    partitioner: str = "hash",
    num_vantage_points: int = 20,
    branching: int = 8,
    thresholds: ThresholdLadder | None = None,
    seed: int = 0,
) -> Path:
    """Build S per-shard indexes plus a manifest under ``out_dir``.

    Returns the manifest path.  ``thresholds`` overrides the global ladder
    (otherwise it is derived from whole-database distance samples exactly
    as :meth:`NBIndex.build` would).
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
        if thresholds is None:
            if len(database) < 2:
                thresholds = ThresholdLadder([1.0])
            else:
                with obs.span("shard.ladder"):
                    thresholds = choose_thresholds(
                        database.graphs, engine, count=10,
                        num_pairs=min(1000, len(database) * 4),
                        rng=np.random.default_rng(seed),
                    )

        with obs.span("shard.partition", strategy=partitioner):
            partition = get_partitioner(partitioner).assign(
                database, num_shards, seed=seed, distance=engine
            )

        # Child s of the root seeds shard s (ShardManifest.shard_rng);
        # the child after the last shard seeds the frame.
        frame_seed = np.random.SeedSequence(seed, spawn_key=(num_shards,))
        with obs.span("shard.frame"):
            vantage = select_vantage_points(
                database.graphs, min(num_vantage_points, len(database)),
                rng=np.random.default_rng(frame_seed),
            )
            embedding = VantageEmbedding(database.graphs, vantage, engine)
            frame = VantageFrame(embedding.vantage_indices, embedding.coords)
        artifacts = [out_dir / f"shard-{s:03d}.npz" for s in range(num_shards)]

        def build_one(shard_id: int) -> tuple[float, int]:
            """One shard's artifact and its crc32 — a whole fan-out task."""
            members = partition.members(shard_id)
            with obs.span(
                "shard.build_one", shard=shard_id, n=len(members)
            ), obs.timer("shard.build_one_seconds"):
                shard_started = time.perf_counter()
                _, raw = write_shard(
                    artifacts[shard_id], database, distance, frame, members,
                    shard_id, seed=seed, branching=branching,
                    ladder=thresholds,
                )
                seconds = time.perf_counter() - shard_started
            obs.counter("shard.builds")
            return seconds, zlib.crc32(raw)

        # Each member meets up to b pivots at the top of its shard's tree.
        built = (
            fan_out(build_one, range(num_shards), len(database) * branching)
            if engine.portable else [build_one(s) for s in range(num_shards)]
        )
        shard_build_seconds = [seconds for seconds, _ in built]
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
            ladder=tuple(thresholds.values),
            assignments=partition.assignments,
            database_checksum=database_checksum(database),
            shards=tuple(entries),
            frame=tuple(frame.vantage_ids),
            build={
                "num_vantage_points": num_vantage_points,
                "branching": branching,
                "shard_seconds": [round(s, 6) for s in shard_build_seconds],
                "total_seconds": round(time.perf_counter() - started, 6),
            },
        )
        manifest_path = out_dir / MANIFEST_NAME
        manifest.save(manifest_path)
        build_span.set(seconds=round(time.perf_counter() - started, 3))
    obs.observe_time("shard.build_seconds", time.perf_counter() - started)
    return manifest_path
