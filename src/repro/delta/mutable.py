"""`MutableIndex`: live insert/delete/update over a served NB-Index.

The LSM shape, specialized to the NB-Index:

* **memtable** — graphs appended after the last compaction live only in
  the database (ids ``indexed_count ..``); queries scan them *exactly*
  through an :class:`~repro.delta.frontier.ExactFrontier` that sits next
  to the base index's frontier in the same coordinator loop.
* **tombstones** — deletes are soft
  (:meth:`~repro.graphs.database.GraphDatabase.mark_deleted`): the graph
  stays addressable so every embedding structure remains valid, but
  ``relevant_indices`` masks it out of ``L_q``, which is the row every
  coverage bitset is built from — a deleted graph can neither be an
  answer nor be covered.
* **updates** — ids are content-immutable (the engines' pair caches and
  the vantage frame's rows key on them), so an update is tombstone-old +
  insert-new and returns the *new* id.
* **journal** — an optional
  :class:`~repro.delta.journal.MutationJournal` makes mutations durable:
  base file + journal replay = database, fsynced per record.
* **compaction** — :meth:`compact` rebuilds the base over the merged
  view (a prefix snapshot of the live database) *outside* the latch and
  swaps it under the write side, bumping a generation counter.  For a
  sharded base only the shards whose member sets changed are rebuilt —
  unchanged shards keep their artifacts and byte checksums (the
  hot-reload reuse, extended from "rebuild offline" to "compact
  online") — and the new base is one index over the grown frame.  The
  bundle keeps its vantage frame: a memtable
  graph's frame row, computed the first time a query needed it, is
  handed to the rebuilt shard instead of being measured again (a
  tombstoned vantage graph is still a valid origin); only the full
  rebuild of a single-index base draws a new one.  The new manifest's
  atomic rename is the commit point; any failure before it rolls back
  with the old generation still serving (and the old manifest still on
  disk).

Answer invariant (the acceptance gate): after any mutation sequence,
with or without interleaved compactions, ``query()`` is bit-identical —
ids, gains, order, coverage — to a from-scratch build over the mutated
database.  The coordinator's canonical (max gain, min id) selection rule
makes answers independent of how the database is split between the
indexed base and the exactly-scanned memtable.
"""

from __future__ import annotations

import os
import time
import zlib
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.results import QueryResult
from repro.delta.errors import CompactionError
from repro.delta.frontier import ExactFrontier
from repro.delta.journal import MutationJournal
from repro.graphs.database import GraphDatabase
from repro.index.nbindex import (
    NBIndex,
    QueryRun,
    QuerySession,
    check_query_kwargs,
)
from repro.index.persistence import save_index
from repro.index.vantage import VantageFrame
from repro.resilience import faults
from repro.resilience.atomicio import unwrap_checksummed
from repro.resilience.deadline import unbudgeted
from repro.service.latch import ReadWriteLatch
from repro.shard.frontier import ShardFrontier
from repro.utils.validation import require


class MutableIndex:
    """A live index: a base (NBIndex or ShardedIndex) plus a memtable.

    Build one through :func:`repro.open_index` with ``mutable=True``.
    All methods are thread-safe: mutations and compaction swaps take the
    write side of an internal latch, queries the read side.
    """

    #: The facade's capability flag — read-only indexes carry ``False``.
    mutable = True

    def __init__(
        self,
        database: GraphDatabase,
        base,
        *,
        distance,
        journal: MutationJournal | None = None,
        manifest_path: str | Path | None = None,
        index_path: str | Path | None = None,
        seed: int = 0,
    ):
        from repro.engine import DistanceEngine

        self.database = database  # the LIVE database; grows in place
        self.base = base
        self.distance = distance
        self.journal = journal
        self.manifest_path = (
            Path(manifest_path) if manifest_path is not None else None
        )
        self.index_path = Path(index_path) if index_path is not None else None
        self.seed = int(seed)
        self.latch = ReadWriteLatch()
        self.generation = 0
        self.compactions = 0
        self.compaction_failures = 0
        #: Graphs with ids below this are covered by the base index;
        #: everything at or above is memtable, scanned exactly.
        self.indexed_count = self._base_count(base)
        #: The base's vantage frame; memtable graphs get their rows here
        #: on first use, once per process.
        self.frame = self._frame_of(base)
        require(
            self.indexed_count <= len(database),
            f"base covers {self.indexed_count} graphs but the database "
            f"has only {len(database)}",
        )
        # The mutation layer's own global engine: plain (no vantage
        # embedding attached — memtable graphs have no coordinates), over
        # the live graph list, so appended graphs are immediately
        # reachable.  The base index's engine measures its members
        # against each other; this one every distance to a memtable graph.
        self.engine = DistanceEngine(distance, graphs=database.graphs)

    @staticmethod
    def _base_count(base) -> int:
        if hasattr(base, "manifest"):
            return int(base.manifest.num_graphs)
        return len(base.database)

    @staticmethod
    def _frame_of(base) -> VantageFrame:
        if hasattr(base, "frame"):
            return base.frame
        # One index over identity ids: its embedding is the frame.
        return VantageFrame(
            base.embedding.vantage_indices, base.embedding.coords
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def memtable_size(self) -> int:
        return len(self.database) - self.indexed_count

    @property
    def tombstones(self) -> int:
        return len(self.database.deleted)

    @property
    def num_shards(self) -> int:
        return getattr(self.base, "num_shards", 1)

    def stats(self) -> dict:
        """Statable protocol: the base's normalized stats plus a
        ``delta`` section describing the mutation layer."""
        with self.latch.read():
            out = dict(self.base.stats())
            out["num_graphs"] = len(self.database)
            out["distance_calls"] = (
                out.get("distance_calls", 0) + self.engine.calls
            )
            out["mutable"] = True
            out["delta"] = {
                "memtable_size": self.memtable_size,
                "tombstones": self.tombstones,
                "indexed_graphs": self.indexed_count,
                "generation": self.generation,
                "compactions": self.compactions,
                "compaction_failures": self.compaction_failures,
                "journal_records": (
                    self.journal.num_records
                    if self.journal is not None else 0
                ),
                "journal_torn_tails": (
                    self.journal.torn_tail_repairs
                    if self.journal is not None else 0
                ),
                "journal_generation": (
                    self.journal.generation
                    if self.journal is not None else 0
                ),
            }
        return out

    # ------------------------------------------------------------------
    # Mutations (write latch; journaled before acknowledging)
    # ------------------------------------------------------------------
    def insert(self, graph, feature_row) -> int:
        """Append one graph; it is queryable immediately (memtable).
        Returns its global id."""
        with self.latch.write():
            gid = self.database.append(graph, feature_row)
            if self.journal is not None:
                self.journal.append_insert(gid, self.database[gid], feature_row)
        obs.counter("delta.inserts")
        self._memtable_gauges()
        return gid

    def delete(self, gid: int) -> bool:
        """Tombstone one graph.  Returns ``False`` if it was already
        deleted (idempotent), ``True`` otherwise."""
        with self.latch.write():
            require(
                0 <= int(gid) < len(self.database),
                f"gid {gid} outside 0..{len(self.database) - 1}",
            )
            if self.database.is_deleted(gid):
                return False
            self.database.mark_deleted(gid)
            if self.journal is not None:
                self.journal.append_delete(gid)
        obs.counter("delta.deletes")
        self._memtable_gauges()
        return True

    def update(self, gid: int, graph, feature_row) -> int:
        """Replace one graph: tombstone ``gid``, insert the replacement.

        Returns the replacement's *new* id — ids are content-immutable
        (engine pair caches and cached shard coordinates key on them), so
        an update never rewrites a graph in place."""
        with self.latch.write():
            require(
                0 <= int(gid) < len(self.database),
                f"gid {gid} outside 0..{len(self.database) - 1}",
            )
            require(
                not self.database.is_deleted(gid),
                f"gid {gid} is already deleted",
            )
            new_id = self.database.append(graph, feature_row)
            self.database.mark_deleted(gid)
            if self.journal is not None:
                self.journal.append_update(
                    gid, new_id, self.database[new_id], feature_row
                )
        obs.counter("delta.updates")
        self._memtable_gauges()
        return new_id

    def _memtable_gauges(self) -> None:
        if obs.enabled():
            obs.gauge("delta.memtable_size", self.memtable_size)
            obs.gauge("delta.tombstones", self.tombstones)
            obs.gauge("delta.generation", self.generation)

    # ------------------------------------------------------------------
    # Queries (read latch for the whole query)
    # ------------------------------------------------------------------
    def query(self, query_fn, theta: float, k: int, **kwargs) -> QueryResult:
        check_query_kwargs(self, kwargs)
        with self.latch.read():
            return QuerySession(self, query_fn).query(theta, k, **kwargs)

    # -- QuerySession hooks ---------------------------------------------
    _query_layer = "delta"

    def _distance_calls(self) -> int:
        return self.engine.calls + self.base._distance_calls()

    def _run_query(self, run: QueryRun):
        """One frontier over the base index, seeing memtable graphs
        through the frame, and one exactly-scanned memtable frontier."""
        session = run.session
        indexed = self.indexed_count
        delta_rel = session.relevant[session.relevant >= indexed]
        run.span.set(memtable=int(delta_rel.size))
        base_frontier = ShardFrontier(
            self.base._member_state(session), run.theta, run.stats,
            run.runtime, global_engine=self.engine, frame=self.frame,
        )
        delta_frontier = ExactFrontier(
            delta_rel, session.universe, self.engine, run.theta, run.stats,
            run.runtime,
        )
        result = run.greedy(
            [base_frontier, delta_frontier],
            lambda gid: delta_frontier if gid >= indexed else base_frontier,
        )
        result[3]["memtable_relevant"] = int(delta_rel.size)
        return result

    # ------------------------------------------------------------------
    # Compaction (build outside the latch, swap under it)
    # ------------------------------------------------------------------
    def compact(self) -> dict:
        """Absorb the memtable into the base index, one shard at a time.

        Concurrent queries keep serving the old generation while the new
        one builds; concurrent mutations keep landing (anything appended
        after the snapshot stays in the memtable).  On any failure the
        old generation — in memory *and* on disk — keeps serving and
        :class:`~repro.delta.errors.CompactionError` is raised; the
        rollback is reported once via ``delta.compaction_rollbacks``.
        """
        with self.latch.read():
            base = self.base
            n1 = len(self.database)
            absorbed = n1 - self.indexed_count
            if not absorbed:
                return {
                    "generation": self.generation,
                    "absorbed": 0,
                    "rebuilt_shards": [],
                    "reused_shards": self.num_shards,
                    "skipped": True,
                }
            # Prefix snapshot: ids 0..n1-1, content-identical to the live
            # database (appends only ever extend, never rewrite), so the
            # new base's structures line up with live global ids.
            snapshot = self.database.subset(range(n1))
        started = time.perf_counter()
        try:
            # Unbudgeted: the absorbed graphs' frame rows are stored.
            with unbudgeted(), obs.span(
                "delta.compact", absorbed=absorbed,
                generation=self.generation + 1,
            ):
                faults.maybe_slow("delta.compact")
                if hasattr(base, "manifest"):
                    new_base, report = self._compact_sharded(
                        base, snapshot, n1
                    )
                else:
                    new_base, report = self._compact_single(
                        base, snapshot, n1
                    )
        except Exception as error:
            self.compaction_failures += 1
            obs.counter("delta.compaction_failures")
            obs.counter("delta.compaction_rollbacks")
            raise CompactionError(
                f"compaction failed and was rolled back — generation "
                f"{self.generation} still serving: "
                f"{type(error).__name__}: {error}"
            ) from error
        with self.latch.write():
            self.base = new_base
            self.frame = self._frame_of(new_base)
            # Rows the new base stores need no second copy (no query is
            # reading the old generation's frame under the write latch).
            for gid in range(self.indexed_count, n1):
                self.frame.extra.pop(gid, None)
            self.indexed_count = n1
            self.generation += 1
            self.compactions += 1
        obs.counter("delta.compactions")
        obs.observe_time(
            "delta.compact_seconds", time.perf_counter() - started
        )
        self._memtable_gauges()
        report.update(
            generation=self.generation, absorbed=absorbed,
            seconds=round(time.perf_counter() - started, 6),
        )
        return report

    def _compact_single(self, base: NBIndex, snapshot, n1: int):
        """Full rebuild — a single NBIndex has exactly one 'shard'."""
        new_index = NBIndex.build(
            snapshot,
            self.distance,
            num_vantage_points=min(
                base.embedding.num_vantage_points, len(snapshot)
            ),
            seed=np.random.default_rng(self.seed),
        )
        if self.index_path is not None:
            # Stage → verify → atomic rename, so a torn write can never
            # replace the serving artifact.
            staging = self.index_path.with_name(
                self.index_path.name + f".gen{self.generation + 1:04d}"
            )
            save_index(new_index, staging)
            unwrap_checksummed(staging.read_bytes(), source=str(staging))
            faults.maybe_abort_stage("delta.compact.commit")
            os.replace(staging, self.index_path)
        else:
            faults.maybe_abort_stage("delta.compact.commit")
        return new_index, {"rebuilt_shards": [0], "reused_shards": 0}

    def _compact_sharded(self, base, snapshot, n1: int):
        """Rebuild only the shards whose member sets changed.

        Existing graphs keep their shard; memtable graphs are routed by
        the same structure hash the hash partitioner uses (stable across
        compactions).  Unchanged shards keep their artifacts and
        checksums; the new base is one index over the grown frame."""
        from repro.shard.build import write_shard
        from repro.shard.manifest import (
            ShardEntry,
            ShardManifest,
            database_checksum,
        )
        from repro.shard.sharded import ShardedIndex

        manifest = base.manifest
        n0 = manifest.num_graphs
        num_shards = manifest.num_shards
        generation = self.generation + 1
        manifest_path = self.manifest_path or base.path
        require(
            manifest_path is not None,
            "sharded compaction needs the manifest path",
        )
        out_dir = Path(manifest_path).parent

        digests = np.array(
            [
                zlib.crc32(repr(snapshot[g].canonical_form()).encode())
                for g in range(n0, n1)
            ],
            dtype=np.uint64,
        )
        assignments = np.concatenate([
            manifest.assignments,
            (digests % np.uint64(num_shards)).astype(np.int64),
        ])
        changed = sorted({int(a) for a in assignments[n0:]})

        # The frame survives: every absorbed graph's row is computed at
        # most once per process (a query may already have), then stored.
        old_frame = base.frame
        frame = VantageFrame(old_frame.vantage_ids, np.vstack([
            old_frame.coords,
            *(old_frame.row(g, self.engine) for g in range(n0, n1)),
        ]), old_frame.extra)
        entries: list[ShardEntry] = []
        for shard_id in range(num_shards):
            members = np.flatnonzero(assignments == shard_id)
            if shard_id not in changed:
                entries.append(manifest.shards[shard_id])
                continue
            artifact = out_dir / (
                f"shard-{shard_id:03d}-gen{generation:04d}.npz"
            )
            raw = write_shard(
                artifact, snapshot, self.distance, frame, members
            )
            obs.counter("delta.shard_rebuilds")
            # Verify before the manifest references it: a torn artifact
            # write must fail the compaction, not the next load.
            unwrap_checksummed(raw, source=str(artifact))
            entries.append(ShardEntry(
                shard_id=shard_id,
                path=artifact.name,
                checksum=zlib.crc32(raw),
                num_graphs=int(members.size),
            ))
            faults.maybe_abort_stage("delta.compact.shard")

        faults.maybe_abort_stage("delta.compact.commit")
        new_manifest = ShardManifest(
            num_shards=num_shards,
            num_graphs=n1,
            partitioner=manifest.partitioner,
            seed=manifest.seed,
            assignments=assignments,
            database_checksum=database_checksum(snapshot),
            shards=tuple(entries),
            build={
                **manifest.build,
                "generation": generation,
                "compacted": True,
            },
            frame=tuple(frame.vantage_ids),
        )
        new_manifest.save(manifest_path)  # atomic rename = commit point

        new_base = ShardedIndex(
            snapshot, self.distance, manifest=new_manifest, frame=frame,
            path=Path(manifest_path), reused_shards=num_shards - len(changed),
        )
        # Post-commit, best effort: superseded generation artifacts are
        # unreferenced by the new manifest and safe to drop.
        old_names = {entry.path for entry in manifest.shards}
        new_names = {entry.path for entry in new_manifest.shards}
        for name in old_names - new_names:
            try:
                (out_dir / name).unlink()
            except OSError:  # pragma: no cover - cleanup is advisory
                pass
        return new_base, {
            "rebuilt_shards": changed,
            "reused_shards": num_shards - len(changed),
        }

    # ------------------------------------------------------------------
    # Checkpoint (fold the journal into a fresh base database)
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Fold the journal into a new generation-numbered base database.

        Compaction absorbs the memtable into the *index*; checkpointing
        folds the journal into the *base file*, so recovery replays a
        short (usually empty) journal over a fresh base instead of the
        whole mutation history.  Delegates to
        :func:`repro.durability.checkpoint`; raises
        :class:`~repro.durability.errors.CheckpointError` (with the old
        generation still serving) on any failure before the commit
        rename."""
        from repro.durability.checkpoint import checkpoint as _checkpoint

        return _checkpoint(self)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the journal, if one is attached."""
        if self.journal is not None:
            self.journal.close()

    def __repr__(self) -> str:
        return (
            f"<MutableIndex n={len(self.database)} "
            f"indexed={self.indexed_count} memtable={self.memtable_size} "
            f"tombstones={self.tombstones} generation={self.generation}>"
        )
