"""NB-Index persistence: save/load the offline structures.

An index is expensive to build (it is *the* offline investment the paper's
query speed rests on), so a production deployment wants it on disk.  The
payload is a single compressed ``.npz`` — vantage coordinates, the
flattened NB-Tree (per-node scalars + parent pointers; members are
reconstructed from the leaf structure), the threshold ladder, and a
database fingerprint so loading against the wrong database fails loudly
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

The loader reads format version 3 only: the vantage coordinates in the
narrowest lossless dtype (:func:`_storage_coords`, handed back as
float64) and whether they are rows of a bundle's frame (``framed``).  A
bare ``.npz`` from before the container fails the container check
(:class:`~repro.resilience.CorruptIndexError`); an older container
version raises :class:`~repro.resilience.IndexFormatError`.

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
from repro.index.nbtree import NBTree, NBTreeNode
from repro.index.pivec import ThresholdLadder
from repro.index.vantage import VantageEmbedding
from repro.resilience.atomicio import read_checksummed, write_checksummed
from repro.resilience.errors import DatabaseMismatchError, IndexFormatError

#: The npz payload in the checksummed container, integral coordinates
#: stored as unsigned integers, the ``framed`` flag.
FORMAT_VERSION = 3


def database_fingerprint(database: GraphDatabase) -> np.ndarray:
    """Stable per-graph digests (crc32 of the canonical form).

    Used to verify at load time that the index belongs to the database it
    is being attached to.
    """
    return np.array(
        [zlib.crc32(repr(g.canonical_form()).encode()) for g in database],
        dtype=np.uint32,
    )


def flatten_tree(tree: NBTree) -> dict[str, np.ndarray]:
    """The NB-Tree as flat arrays (per-node scalars + parent pointers), as
    :func:`save_index` stores it."""
    nodes = tree.nodes
    parent = np.full(len(nodes), -1, dtype=np.int64)
    for node in nodes:
        for child in node.children:
            parent[child.node_id] = node.node_id
    return {
        "node_centroid": np.array([n.centroid for n in nodes], dtype=np.int64),
        "node_radius": np.array([n.radius for n in nodes]),
        "node_diameter": np.array([n.diameter for n in nodes]),
        "node_graph_index": np.array(
            [-1 if n.graph_index is None else n.graph_index for n in nodes],
            dtype=np.int64,
        ),
        "node_parent": parent,
        "root_id": np.array([tree.root.node_id], dtype=np.int64),
        "branching": np.array([tree.branching], dtype=np.int64),
    }


def tree_from_arrays(arrays, graphs, engine, embedding) -> NBTree:
    """Inverse of :func:`flatten_tree`: rebuild the NB-Tree structure.

    ``arrays`` is any mapping with :func:`flatten_tree`'s keys (an open
    ``.npz`` works).  Children are appended in node-id order, which is the
    order the builder created them in, so round-trips are structure-exact.
    """
    centroids = arrays["node_centroid"]
    radii = arrays["node_radius"]
    diameters = arrays["node_diameter"]
    graph_indices = arrays["node_graph_index"]
    parents = arrays["node_parent"]
    num_nodes = centroids.shape[0]

    nodes = [
        NBTreeNode(
            node_id=i,
            centroid=int(centroids[i]),
            radius=float(radii[i]),
            diameter=float(diameters[i]),
            members=np.empty(0, dtype=np.int64),
            graph_index=(
                None if graph_indices[i] < 0 else int(graph_indices[i])
            ),
        )
        for i in range(num_nodes)
    ]
    for i in range(num_nodes):
        p = int(parents[i])
        if p >= 0:
            nodes[p].children.append(nodes[i])
    root = nodes[int(arrays["root_id"][0])]
    _rebuild_members(root)

    tree = NBTree.__new__(NBTree)
    tree._graphs = graphs
    tree._engine = engine
    tree._embedding = embedding
    tree.branching = int(arrays["branching"][0])
    tree.nodes = nodes
    tree.root = root
    from repro.index.nbtree import BuildStats

    tree.stats = BuildStats()
    return tree


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
        ladder=np.array(list(index.ladder.values)),
        fingerprint=database_fingerprint(index.database),
        build_seconds=np.array([index.build_seconds]),
        **flatten_tree(index.tree),
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
    its tree or database (checks and the replica coordinator, which loads
    no shard, read a bundle's coordinates this way)."""
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
    stored coordinates and radii are only meaningful for it); the database
    is verified by fingerprint.  The index always gets an engine of its own
    (as in :meth:`NBIndex.from_coords`): shards of one bundle are loaded
    with the same ``distance`` and each speaks its own local ids.
    ``payload`` is the file's verified payload when the caller has read it
    already (see :func:`_open`).
    """
    path = Path(path)
    with _open(path, payload) as data:
        version = int(data["format_version"][0])
        if version != FORMAT_VERSION:
            raise IndexFormatError(
                f"{path}: unsupported index format version {version} "
                f"(this build reads {FORMAT_VERSION})"
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
        tree = tree_from_arrays(data, database.graphs, engine, embedding)
        ladder = ThresholdLadder(float(v) for v in data["ladder"])
        build_seconds = float(data["build_seconds"][0])

    return NBIndex(
        database, engine, embedding=embedding, tree=tree, ladder=ladder,
        build_seconds=build_seconds,
    )


def _rebuild_members(node: NBTreeNode) -> np.ndarray:
    """Recompute member arrays bottom-up from the leaf structure."""
    if node.is_leaf:
        node.members = np.array([node.graph_index], dtype=np.int64)
    else:
        node.members = np.sort(
            np.concatenate([_rebuild_members(c) for c in node.children])
        )
    return node.members
