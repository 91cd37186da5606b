"""The unified public stats/query API and the keywords it retired."""

import inspect

import pytest

import repro
from repro import Statable
from repro.analysis.distances import sample_distances
from repro.baselines.ctree import CTree
from repro.baselines.distmatrix import DistanceMatrixOracle
from repro.baselines.mtree import MTree
from repro.cascade import FilterCascade
from repro.core.results import QueryStats
from repro.ged.metric import CountingDistance, pairwise_matrix
from repro.ged.star import StarDistance
from repro.graphs import quartile_relevance
from repro.index.nbindex import NBIndex, QuerySession
from repro.index.pivec import choose_thresholds
from repro.index.vantage import VantageEmbedding, select_vantage_points
from repro.replica.cluster import ReplicatedIndex
from repro.replica.remote import RemoteFrontier
from repro.replica.router import ReplicaRouter
from repro.replica.supervisor import Supervisor
from repro.service import QueryRequest, ServiceConfig
from repro.shard.build import write_shard
from repro.shard.manifest import ShardManifest
from repro.shard.partition import ClusteringPartitioner, HashPartitioner
from tests.conftest import random_database


@pytest.fixture(scope="module")
def db():
    return random_database(seed=4, size=25)


@pytest.fixture(scope="module")
def index(db):
    return NBIndex.build(
        db, StarDistance(), num_vantage_points=4, seed=0
    )


class TestStatableProtocol:
    def test_every_stats_surface_is_statable(self, db, index):
        counting = CountingDistance(StarDistance())
        surfaces = [
            index,
            index.engine,
            counting,
            MTree(db.graphs, StarDistance(), capacity=4, seed=0),
            CTree(db.graphs, StarDistance(), capacity=4, seed=0),
        ]
        for surface in surfaces:
            assert isinstance(surface, Statable), surface
            stats = surface.stats()
            assert isinstance(stats, dict) and stats

    def test_query_stats_is_statable(self, db, index):
        result = index.query(quartile_relevance(db), 6.0, 2)
        assert isinstance(result.stats, Statable)
        stats = result.stats.stats()
        assert stats["distance_calls"] >= 0
        assert "total_seconds" in stats

    def test_stats_are_json_safe(self, index):
        import json

        json.dumps(index.stats())

    def test_nbindex_stats_shape(self, db, index):
        stats = index.stats()
        assert stats["num_graphs"] == len(db)
        assert stats["num_vantage_points"] == 4
        assert "tree_nodes" not in stats and "tree_build" not in stats
        assert stats["distance_calls"] > 0
        assert stats["memory_bytes"] > 0
        assert "engine" in stats

    def test_collect_stats_nests_and_skips_none(self, index):
        from repro.obs import collect_stats

        document = collect_stats(index=index, engine=index.engine, absent=None)
        assert set(document) == {"index", "engine"}
        assert document["index"]["distance_calls"] > 0


#: Every callable that lost a keyword when the engine became the one
#: distance handle (``engine=``, ``counting=``), with the ``rng=`` alias of
#: ``seed=`` and hedged reads.
_REMOVED_KEYWORDS = [
    (NBIndex, "counting"), (NBIndex.build, "engine"), (NBIndex.build, "rng"),
    (VantageEmbedding, "engine"),
    (select_vantage_points, "engine"), (choose_thresholds, "engine"),
    (MTree, "engine"), (MTree, "rng"), (CTree, "engine"), (CTree, "rng"),
    (DistanceMatrixOracle, "engine"), (pairwise_matrix, "engine"),
    (sample_distances, "engine"),
    (HashPartitioner.assign, "engine"), (ClusteringPartitioner.assign, "engine"),
    (ReplicatedIndex.open, "hedge_ms"), (ReplicaRouter, "hedge_ms"),
    (ReplicaRouter.call, "hedge"),
    (NBIndex.build, "checkpoint"), (NBIndex.build, "resume"),
    (Supervisor, "restart_policy"), (ReplicatedIndex.open, "restart_policy"),
    (ServiceConfig, "breaker"), (QueryStats, "partial"),
    (QueryStats, "unavailable_shards"),
    (QuerySession.query, "epsilon"), (FilterCascade, "epsilon"),
    (QueryStats, "epsilon"), (QueryStats, "approximate"),
    (RemoteFrontier, "epsilon"), (QueryRequest, "epsilon"),
    (NBIndex, "ladder"), (NBIndex.from_coords, "thresholds"),
    (write_shard, "ladder"), (ShardManifest, "ladder"),
]


class TestRemovedKeywords:
    @pytest.mark.parametrize(
        "fn, keyword", _REMOVED_KEYWORDS,
        ids=[f"{fn.__qualname__}-{kw}" for fn, kw in _REMOVED_KEYWORDS],
    )
    def test_removed_keyword_is_a_type_error(self, fn, keyword):
        required = [
            p for p in inspect.signature(fn).parameters.values()
            if p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD
        ]
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            fn(*[None] * len(required), **{keyword: None})

    def test_facade_forwards_rng_to_a_build_that_refuses_it(self, db):
        with pytest.raises(TypeError, match="unexpected keyword argument 'rng'"):
            repro.TopKRepresentativeQuery(db, rng=3).index


class TestRemovedNames:
    """An index is its vantage frame: no threshold ladder to read, swap,
    derive or report."""

    def test_no_ladder_on_any_index(self, db, index, tmp_path):
        from repro.delta import MutableIndex
        from repro.shard import ShardedIndex, build_shards

        sharded = ShardedIndex.load(build_shards(
            db, StarDistance(), num_shards=2, out_dir=tmp_path,
            num_vantage_points=4,
        ), db, StarDistance())
        for holder in (index, sharded, NBIndex, ShardedIndex, MutableIndex,
                       ReplicatedIndex):
            assert not hasattr(holder, "ladder"), holder
            assert not hasattr(holder, "set_ladder"), holder
        for stats in (index.stats(), sharded.stats()):
            assert "ladder_thresholds" not in stats

    def test_no_ladder_helpers(self):
        import repro.datasets
        import repro.index
        import repro.index.pivec

        assert not hasattr(repro.index, "ladder_from_query_log")
        assert not hasattr(repro.index.pivec, "ladder_from_query_log")
        assert not hasattr(repro.datasets, "ladder_for")


class TestKeywordOnlySignatures:
    def test_build_rejects_positional_hyperparams(self, db):
        with pytest.raises(TypeError):
            NBIndex.build(db, StarDistance(), 5)

    @pytest.mark.parametrize("tree_cls", [MTree, CTree])
    def test_trees_reject_positional_capacity(self, db, tree_cls):
        with pytest.raises(TypeError):
            tree_cls(db.graphs, StarDistance(), 4)

    def test_greedy_rejects_positional_options(self, db):
        with pytest.raises(TypeError):
            repro.baseline_greedy(
                db, StarDistance(), quartile_relevance(db), 6.0, 2, None
            )

    def test_query_rejects_unknown_kwargs(self, db, index):
        with pytest.raises(TypeError, match="unexpected keyword"):
            index.query(quartile_relevance(db), 6.0, 2, stop_on_zero=True)

    def test_query_accepts_known_kwargs(self, db, index):
        result = index.query(
            quartile_relevance(db), 6.0, 2, stop_on_zero_gain=True
        )
        assert result.answer


class TestFacadeFunctions:
    def test_observe_reexported(self):
        with repro.observe() as run:
            repro.obs.counter("c")
        assert run.stats()["counters"]["c"] == 1

    def test_open_database_roundtrip(self, db, tmp_path):
        from repro.graphs import save_database

        path = tmp_path / "db.jsonl"
        save_database(db, path)
        loaded = repro.open_database(path)
        assert len(loaded) == len(db)
        assert loaded[0].num_nodes == db[0].num_nodes

    def test_load_index_defaults_to_star_distance(self, db, index, tmp_path):
        from repro.graphs import save_database
        from repro.index import save_index

        db_path, index_path = tmp_path / "db.jsonl", tmp_path / "index.npz"
        save_database(db, db_path)
        save_index(index, index_path)
        loaded_db = repro.open_database(db_path)
        loaded = repro.open_index(index_path, loaded_db)
        q = quartile_relevance(db)
        assert loaded.query(q, 6.0, 2).answer == index.query(q, 6.0, 2).answer
