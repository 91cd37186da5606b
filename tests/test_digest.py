"""A graph's digest is computed once and read by every fingerprint.

``LabeledGraph.digest`` is ``crc32(repr(canonical_form()))``, kept on the
graph after its first read; ``database_fingerprint``, ``database_checksum``,
the hash partitioner and compaction's routing all read it.  A cached
digest must never let a wrong database through: a database that differs
in one graph is refused by every open path.
"""

import pickle
import zlib

import numpy as np
import pytest

import repro
from repro import NBIndex, StarDistance, build_shards
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import LabeledGraph
from repro.index.persistence import database_fingerprint, save_index
from repro.replica import ReplicatedIndex
from repro.resilience import DatabaseMismatchError
from repro.shard.manifest import database_checksum
from repro.shard.partition import HashPartitioner
from tests.conftest import random_database


def crc(graph: LabeledGraph) -> int:
    return zlib.crc32(repr(graph.canonical_form()).encode())


def test_a_fresh_graph_digests_its_canonical_form_once():
    graph = random_database(seed=3, size=1)[0]
    assert not hasattr(graph, "_digest")
    assert graph.digest == crc(graph)
    assert graph.digest is graph._digest  # kept, not recomputed


def test_renumbered_and_subset_copies_agree_and_share_a_taken_digest():
    db = random_database(seed=4, size=12)
    early = db[0].renumbered(40)  # made before the digest was read
    assert early.digest == crc(db[0]) == db[0].digest
    late = db[0].renumbered(41)
    assert late._digest is db[0]._digest
    subset = db.subset([5, 2, 9])
    assert [g.digest for g in subset] == [crc(db[i]) for i in (5, 2, 9)]


@pytest.mark.parametrize("digested", [False, True])
def test_an_unpickled_graph_has_the_same_digest(digested):
    graph = random_database(seed=5, size=1)[0]
    if digested:
        graph.digest
    copy = pickle.loads(pickle.dumps(graph, pickle.HIGHEST_PROTOCOL))
    assert copy == graph
    assert copy.digest == crc(graph)


def test_every_fingerprint_reads_the_digests():
    db = random_database(seed=6, size=30)
    digests = [crc(g) for g in db]
    assert database_fingerprint(db).tolist() == digests
    assert database_checksum(db) == zlib.crc32(
        np.array(digests, dtype=np.uint32).tobytes()
    )
    partition = HashPartitioner().assign(db, 3)
    assert partition.assignments.tolist() == [d % 3 for d in digests]


# ---------------------------------------------------------------------------
# A database that differs in one graph is refused everywhere
# ---------------------------------------------------------------------------
_DB = random_database(seed=7, size=40)


def _one_graph_off(database: GraphDatabase, gid: int = 17) -> GraphDatabase:
    """``database`` with graph ``gid``'s first vertex relabelled; every
    other graph is the same (already digested) object."""
    graph = database[gid]
    labels = ("changed", *graph.node_labels[1:])
    graphs = list(database.graphs)
    graphs[gid] = LabeledGraph(labels, graph.edges())
    return GraphDatabase(graphs, database.features)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("digest")
    index = NBIndex.build(_DB, StarDistance(), num_vantage_points=6, seed=1)
    save_index(index, out / "index.npz")
    manifest = build_shards(
        _DB, StarDistance(), num_shards=2, out_dir=out / "bundle",
        num_vantage_points=6, seed=1,
    )
    return out / "index.npz", manifest


def test_the_own_database_still_opens(artifacts):
    index_path, manifest = artifacts
    repro.open_index(index_path, _DB)
    repro.open_index(manifest, _DB)


def test_open_index_refuses_a_database_one_graph_off(artifacts):
    index_path, _ = artifacts
    with pytest.raises(DatabaseMismatchError):
        repro.open_index(index_path, _one_graph_off(_DB))


def test_a_bundle_open_refuses_a_database_one_graph_off(artifacts):
    _, manifest = artifacts
    with pytest.raises(DatabaseMismatchError):
        repro.open_index(manifest, _one_graph_off(_DB))


def test_a_replicated_open_refuses_a_database_one_graph_off(artifacts):
    _, manifest = artifacts
    with pytest.raises(DatabaseMismatchError):
        ReplicatedIndex.open(manifest, _one_graph_off(_DB), StarDistance())
