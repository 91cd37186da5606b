"""The shard manifest: one small JSON file describing a sharded index.

The manifest is the unit the service watches and the CLI passes around; the
per-shard ``.npz`` artifacts live next to it (paths are stored relative to
the manifest's directory so the whole bundle relocates as one).  It records
everything needed to (re)load and *validate* the bundle:

* the partitioner and the full per-graph shard assignment (a manifest
  from before the π̂ thresholds were dropped still lists them; they are
  ignored),
* the bundle's vantage **frame**: global ids of the graphs every shard is
  embedded against,
* a crc32 over the database fingerprint (wrong-database loads fail loudly
  before any shard is touched),
* per-shard artifact paths, byte checksums and sizes — the checksum is how
  hot reload decides which shards actually changed and whose rows it can
  copy from the serving frame instead (:meth:`ShardManifest.reusable`).

The file is written atomically and carries its own crc32 over the canonical
body, so a torn or hand-mangled manifest raises
:class:`~repro.shard.errors.ManifestError` (a
:class:`~repro.resilience.errors.PersistenceError`) instead of a JSON
traceback.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.index.persistence import stored_embedding
from repro.index.vantage import VantageEmbedding
from repro.resilience.atomicio import atomic_write, unwrap_checksummed
from repro.resilience.errors import CorruptIndexError
from repro.shard.errors import ManifestError

SCHEMA = "repro.shard-manifest/v2"


@dataclass(frozen=True)
class ShardEntry:
    """One shard's artifact: where it lives and how to validate it."""

    shard_id: int
    path: str  # relative to the manifest's directory
    checksum: int  # crc32 of the artifact file bytes
    num_graphs: int

    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "path": self.path,
            "checksum": self.checksum,
            "num_graphs": self.num_graphs,
        }


@dataclass(frozen=True)
class ShardManifest:
    """Complete description of a sharded NB-Index bundle."""

    num_shards: int
    num_graphs: int
    partitioner: str
    seed: int | None
    assignments: np.ndarray  # (num_graphs,) global gid -> shard id
    database_checksum: int  # crc32 over the database fingerprint bytes
    shards: tuple[ShardEntry, ...]
    #: Global ids of the bundle's vantage graphs.
    frame: tuple[int, ...]
    build: dict = field(default_factory=dict)

    def members(self, shard_id: int) -> np.ndarray:
        """Graph ids of one shard, ascending — the order its artifact
        stores their frame rows in."""
        return np.flatnonzero(self.assignments == shard_id)

    def artifact_path(self, shard_id: int, base_dir: Path) -> Path:
        return Path(base_dir) / self.shards[shard_id].path

    # ------------------------------------------------------------------
    # The two checks of a shard artifact: every reader makes these
    # ------------------------------------------------------------------
    def read_artifact(self, shard_id: int, base_dir: Path) -> bytes:
        """Shard ``shard_id``'s artifact, read once: raise
        :class:`~repro.resilience.errors.CorruptIndexError` unless its bytes
        match the crc32 this manifest records (a stale or tampered
        artifact) and its container is intact; ``OSError`` when it cannot
        be read.  Returns the container payload, which the readers of
        :mod:`repro.index.persistence` take instead of reading again."""
        artifact = self.artifact_path(shard_id, base_dir)
        data = artifact.read_bytes()
        if zlib.crc32(data) != self.shards[shard_id].checksum:
            raise CorruptIndexError(
                f"{artifact}: crc32 mismatch against the shard manifest — "
                f"stale or tampered artifact"
            )
        return unwrap_checksummed(data, source=str(artifact))

    def check_frame(self, shard_id: int, vantage, coords) -> None:
        """Raise :class:`~repro.resilience.errors.CorruptIndexError`
        unless a shard's stored ``(vantage ids, coords)`` are its members'
        rows of the bundle's frame."""
        frame = list(self.frame)
        rows = len(self.members(shard_id))
        if list(vantage) != frame or coords.shape != (rows, len(frame)):
            raise CorruptIndexError(
                f"{self.shards[shard_id].path}: coordinates {coords.shape} "
                f"against vantage graphs {list(vantage)} are not in the "
                f"bundle's frame {frame} for {rows} members"
            )

    def check_artifact(self, shard_id: int, base_dir: Path) -> None:
        """Both checks on one artifact on disk, one read, without loading
        it against its database (``repro verify``, the scrubber)."""
        self.check_frame(shard_id, *self.read_embedding(shard_id, base_dir))

    def read_embedding(self, shard_id: int, base_dir: Path):
        """Shard ``shard_id``'s stored ``(vantage ids, coords)``, read
        through :meth:`read_artifact` (unchecked against the frame)."""
        return stored_embedding(
            self.artifact_path(shard_id, base_dir),
            self.read_artifact(shard_id, base_dir),
        )

    def check_rows(
        self, shard_id: int, base_dir: Path, database, distance
    ) -> None:
        """Raise :class:`~repro.resilience.errors.CorruptIndexError` unless
        the shard's first and last member's stored rows equal their
        distances to the vantage graphs, recomputed (``|V|`` each) over
        ``database`` — the fault no checksum sees, sampled."""
        from repro.engine import DistanceEngine

        vantage, coords = self.read_embedding(shard_id, base_dir)
        self.check_frame(shard_id, vantage, coords)
        members = self.members(shard_id)
        engine = DistanceEngine(distance, graphs=database.graphs)
        for row in sorted({0, len(members) - 1}):
            gid = int(members[row])
            want = engine.one_to_many(gid, list(self.frame))
            if not np.array_equal(coords[row], want):
                raise CorruptIndexError(
                    f"{self.shards[shard_id].path}: stored frame row of "
                    f"graph {gid} is not its distances to the vantage "
                    f"graphs — a coordinate was written wrong"
                )

    def reusable(self, previous: "ShardManifest") -> list[int]:
        """Shards whose artifact ``previous`` records too — same frame,
        crc32 and members — so a process serving ``previous`` already
        holds their rows."""
        if previous.frame != self.frame:
            return []
        return [
            s for s in range(min(self.num_shards, previous.num_shards))
            if previous.shards[s].checksum == self.shards[s].checksum
            and np.array_equal(previous.members(s), self.members(s))
        ]

    def load_frame(self, base_dir: Path, previous=None) -> VantageEmbedding:
        """The bundle's one frame, each artifact read once through
        :meth:`read_artifact` and passing :meth:`check_frame` — the loader
        of :class:`~repro.shard.sharded.ShardedIndex` and the replica
        coordinator; no database is needed.  ``previous`` is a generation
        already served (its ``manifest`` and ``frame``): a shard it shares
        (:meth:`reusable`) is copied from that frame, its artifact neither
        read nor checked again."""
        reused = set(self.reusable(previous.manifest)) if previous else set()
        coords = np.empty((self.num_graphs, len(self.frame)))
        for s in range(self.num_shards):
            members = self.members(s)
            if s in reused:
                coords[members] = previous.frame.coords[members]
                continue
            vantage, block = self.read_embedding(s, base_dir)
            self.check_frame(s, vantage, block)
            coords[members] = block
        return VantageEmbedding.from_coords(list(self.frame), coords)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _body(self) -> dict:
        return {
            "schema": SCHEMA,
            "frame": list(self.frame),
            "num_shards": self.num_shards,
            "num_graphs": self.num_graphs,
            "partitioner": self.partitioner,
            "seed": self.seed,
            "assignments": [int(a) for a in self.assignments],
            "database_checksum": self.database_checksum,
            "shards": [entry.to_dict() for entry in self.shards],
            "build": self.build,
        }

    def save(self, path: str | Path) -> None:
        body = self._body()
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        document = {"manifest": body, "crc32": zlib.crc32(canonical.encode())}
        with atomic_write(Path(path), "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "ShardManifest":
        path = Path(path)
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ManifestError(f"{path}: unreadable shard manifest: {error}")
        if not isinstance(document, dict) or "manifest" not in document:
            raise ManifestError(f"{path}: not a shard manifest")
        body = document["manifest"]
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        if zlib.crc32(canonical.encode()) != document.get("crc32"):
            raise ManifestError(
                f"{path}: shard manifest checksum mismatch — file is corrupt"
            )
        if body.get("schema") != SCHEMA:
            raise ManifestError(
                f"{path}: unsupported manifest schema "
                f"{body.get('schema')!r} (this build reads {SCHEMA!r})"
            )
        try:
            manifest = cls(
                num_shards=int(body["num_shards"]),
                num_graphs=int(body["num_graphs"]),
                partitioner=str(body["partitioner"]),
                seed=body["seed"],
                assignments=np.asarray(body["assignments"], dtype=np.int64),
                database_checksum=int(body["database_checksum"]),
                shards=tuple(
                    ShardEntry(
                        shard_id=int(e["shard_id"]),
                        path=str(e["path"]),
                        checksum=int(e["checksum"]),
                        num_graphs=int(e["num_graphs"]),
                    )
                    for e in body["shards"]
                ),
                frame=tuple(int(v) for v in body["frame"]),
                build=dict(body.get("build", {})),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ManifestError(f"{path}: malformed shard manifest: {error}")
        if manifest.assignments.shape != (manifest.num_graphs,):
            raise ManifestError(
                f"{path}: assignment vector has "
                f"{manifest.assignments.shape[0]} entries for "
                f"{manifest.num_graphs} graphs"
            )
        if len(manifest.shards) != manifest.num_shards:
            raise ManifestError(
                f"{path}: {len(manifest.shards)} shard entries for "
                f"num_shards={manifest.num_shards}"
            )
        return manifest


def database_checksum(database) -> int:
    """crc32 over the database fingerprint — the wrong-database guard
    every bundle open checks (shard files store no fingerprint)."""
    from repro.index.persistence import database_fingerprint

    return zlib.crc32(database_fingerprint(database).tobytes())
