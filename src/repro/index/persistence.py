"""NB-Index persistence: save/load the offline structures.

An index is expensive to build (it is *the* offline investment the paper's
query speed rests on), so a production deployment wants it on disk.  The
payload is a single compressed ``.npz`` — vantage coordinates and a
database fingerprint, so loading against the wrong database fails loudly
instead of answering garbage — wrapped in the checksummed container of
:mod:`repro.resilience.atomicio` and written via atomic rename, so a torn
or corrupted file is *detected* at load time.

Load failures raise distinct (all ``ValueError``-compatible) exceptions:

* :class:`~repro.resilience.CorruptIndexError` — truncated/torn/bit-rotted
  bytes (checksum or length mismatch);
* :class:`~repro.resilience.IndexFormatError` — intact file from an
  unsupported ``format_version``;
* :class:`~repro.resilience.DatabaseMismatchError` — fingerprint does not
  match the database being attached.

The loader reads format versions 3, 4 and 5: the vantage coordinates in
the narrowest lossless dtype (:func:`_storage_coords`, handed back as
float64) and whether they are rows of a bundle's frame (``framed``).
Version 4 dropped the NB-Tree's arrays and version 5 the π̂ threshold
array; an older file still carries them, and they are ignored.  A bare ``.npz`` from before the container
fails the container check (:class:`~repro.resilience.CorruptIndexError`);
any other container version raises
:class:`~repro.resilience.IndexFormatError`.

The database itself is *not* stored — graphs live in the caller's own
storage (see :mod:`repro.graphs.io`); the index references them by id.
"""

from __future__ import annotations

import io
import zlib
from pathlib import Path

import numpy as np

from repro.ged.metric import GraphDistanceFn
from repro.graphs.database import GraphDatabase
from repro.index.nbindex import NBIndex
from repro.index.vantage import VantageEmbedding
from repro.resilience.atomicio import read_checksummed, write_checksummed
from repro.resilience.errors import DatabaseMismatchError, IndexFormatError

#: The npz payload in the checksummed container, integral coordinates
#: stored as unsigned integers, the ``framed`` flag, no tree or threshold
#: arrays.
FORMAT_VERSION = 5
#: Versions :func:`load_index` reads (3 and 4 carry arrays it ignores).
READABLE_VERSIONS = (3, 4, 5)


def database_fingerprint(database: GraphDatabase) -> np.ndarray:
    """Stable per-graph digests (crc32 of the canonical form).

    Used to verify at load time that the index belongs to the database it
    is being attached to.
    """
    return np.array(
        [zlib.crc32(repr(g.canonical_form()).encode()) for g in database],
        dtype=np.uint32,
    )


def _storage_coords(coords: np.ndarray) -> np.ndarray:
    """The coordinate matrix as it is stored: when every coordinate is a
    non-negative integer (star distances are) the smallest unsigned dtype
    that holds the maximum, float64 otherwise — lossless either way."""
    if not coords.size:
        return coords
    top = coords.max()
    if coords.min() >= 0 and top < 2**63 and (coords == np.floor(coords)).all():
        return coords.astype(np.min_scalar_type(int(top)))
    return coords


def save_index(index: NBIndex, path: str | Path) -> None:
    """Write the index's offline structures to ``path`` (atomic rename +
    checksum footer; see module docstring)."""
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        format_version=np.array([FORMAT_VERSION]),
        coords=_storage_coords(index.embedding.coords),
        vantage_indices=np.array(index.embedding.vantage_indices, dtype=np.int64),
        framed=np.array([index.embedding.framed]),
        fingerprint=database_fingerprint(index.database),
        build_seconds=np.array([index.build_seconds]),
    )
    write_checksummed(Path(path), buffer.getvalue())


def _open(path, payload: bytes | None):
    """The saved index's npz: from ``payload`` — its verified container
    payload, when the caller has read the file already — or from one read
    of ``path``.  Every reader below takes one, so a caller that checks an
    artifact and then reads it pays one read and one crc, not two."""
    return np.load(io.BytesIO(read_checksummed(path) if payload is None else payload))


def indexed_graph_count(path: str | Path, payload: bytes | None = None) -> int:
    """How many database graphs a saved index covers, without loading it.

    The stored fingerprint has one crc per indexed graph, so its length
    *is* the coverage.  The mutable open path uses this to load a grown
    database's index against the right prefix snapshot (the live database
    may have journaled inserts past what the index has absorbed)."""
    with _open(path, payload) as data:
        return int(data["fingerprint"].shape[0])


def stored_embedding(
    path: str | Path, payload: bytes | None = None
) -> tuple[list[int], np.ndarray]:
    """``(vantage_indices, float64 coords)`` of a saved index, read without
    its database (checks and the replica coordinator, which loads no
    shard, read a bundle's coordinates this way)."""
    with _open(path, payload) as data:
        return (
            [int(v) for v in data["vantage_indices"]],
            np.array(data["coords"], dtype=float),
        )


def load_index(
    path: str | Path,
    database: GraphDatabase,
    distance: GraphDistanceFn,
    payload: bytes | None = None,
) -> NBIndex:
    """Load an index saved by :func:`save_index` against its database.

    ``distance`` must be the same metric the index was built with (the
    stored coordinates are only meaningful for it); the database
    is verified by fingerprint, and the index gets an engine of its own.
    ``payload`` is the file's verified payload when the caller has read it
    already (see :func:`_open`).
    """
    path = Path(path)
    with _open(path, payload) as data:
        version = int(data["format_version"][0])
        if version not in READABLE_VERSIONS:
            raise IndexFormatError(
                f"{path}: unsupported index format version {version} "
                f"(this build reads {', '.join(map(str, READABLE_VERSIONS))})"
            )
        stored = data["fingerprint"]
        current = database_fingerprint(database)
        if stored.shape != current.shape or not bool((stored == current).all()):
            raise DatabaseMismatchError(
                f"{path}: index fingerprint does not match the provided "
                f"database"
            )

        from repro.engine import DistanceEngine

        engine = DistanceEngine(distance, graphs=database.graphs)
        embedding = VantageEmbedding.from_coords(
            database.graphs, data["vantage_indices"], engine, data["coords"]
        )
        embedding.framed = bool(data["framed"][0])
        build_seconds = float(data["build_seconds"][0])

    return NBIndex(
        database, engine, embedding=embedding, build_seconds=build_seconds
    )

