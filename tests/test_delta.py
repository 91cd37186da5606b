"""The mutation layer: dual-run bit-identity gate, journal crash
safety, compaction rollback, and the mutation-aware facade.

The acceptance property for `repro.delta` is *bit-identity*: after any
interleaving of insert/delete/update/query/compact, a query through the
mutable index returns exactly — ids, gains, order, coverage — what a
from-scratch NB-Index build over the mutated database returns.  The
hypothesis test below drives randomized mutation programs against that
oracle at S ∈ {1, 4}, with and without interleaved compactions.
"""

from __future__ import annotations

import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.delta import (
    CompactionError,
    JournalError,
    MutableIndex,
    MutationJournal,
)
from repro.ged import StarDistance
from repro.graphs.io import load_database, save_database
from repro.index.errors import ReadOnlyIndexError
from repro.index.nbindex import NBIndex
from repro.index.persistence import save_index
from repro.resilience import faults
from repro.shard.build import build_shards
from repro.shard.sharded import ShardedIndex
from tests.conftest import random_connected_graph, random_database, rungs

DIST = StarDistance()


def _graph_pool(seed: int, count: int):
    """Deterministic pool of insertable graphs + feature rows."""
    rng = np.random.default_rng(seed)
    graphs = [
        random_connected_graph(rng, int(rng.integers(3, 7)))
        for _ in range(count)
    ]
    features = rng.random((count, 3))
    return graphs, features


def _make_mutable(tmp_path, num_shards: int, *, db_seed=71, size=24,
                  base=18, journal=False):
    """A MutableIndex over the first ``base`` graphs of a ``size`` db;
    the rest of the database rows stay available as insert material."""
    db = random_database(seed=db_seed, size=size, num_features=3)
    live = db.subset(range(base))
    if num_shards == 1:
        index = NBIndex.build(
            live, DIST, num_vantage_points=4,
            seed=np.random.default_rng(0),
        )
        path = tmp_path / "index.npz"
        save_index(index, path)
        mutable = MutableIndex(
            live, index, distance=DIST, index_path=path, seed=0,
            journal=MutationJournal(tmp_path / "m.journal") if journal else None,
        )
    else:
        manifest_path = build_shards(
            live, DIST, num_shards=num_shards, out_dir=tmp_path / "bundle",
            num_vantage_points=4, seed=0,
        )
        base_index = ShardedIndex.load(manifest_path, live, DIST)
        mutable = MutableIndex(
            live, base_index, distance=DIST, manifest_path=manifest_path,
            seed=0,
            journal=MutationJournal(tmp_path / "m.journal") if journal else None,
        )
    return mutable, db


def _oracle_result(mutable: MutableIndex, query_fn, theta, k):
    """From-scratch rebuild over the mutated database — the ground truth
    the delta layer must match bit for bit."""
    snapshot = mutable.database.subset(range(len(mutable.database)))
    for gid in mutable.database.deleted:
        snapshot.mark_deleted(gid)
    oracle = NBIndex.build(
        snapshot, DIST, num_vantage_points=4,
        seed=np.random.default_rng(99),
    )
    return oracle.query(query_fn, theta, k)


def _assert_identical(result, oracle):
    assert result.answer == oracle.answer
    assert result.gains == oracle.gains
    assert result.covered == oracle.covered
    assert result.num_relevant == oracle.num_relevant


class TestDualRunGate:
    """Randomized mutation programs vs the from-scratch oracle."""

    @pytest.mark.parametrize("num_shards", [1, 4])
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_mutation_program_is_bit_identical(
        self, tmp_path_factory, num_shards, data
    ):
        tmp = tmp_path_factory.mktemp(f"delta-s{num_shards}")
        mutable, db = _make_mutable(tmp, num_shards)
        thetas = rungs(db.graphs, DIST)
        pool_graphs, pool_features = _graph_pool(
            data.draw(st.integers(0, 2**16), label="pool_seed"), 12
        )
        inserted = 0
        ops = data.draw(
            st.lists(
                st.sampled_from(
                    ["insert", "delete", "update", "compact", "query"]
                ),
                min_size=4, max_size=10,
            ),
            label="program",
        )
        query_fn = lambda g: True  # noqa: E731
        for op in ops:
            if op == "insert" and inserted < len(pool_graphs):
                mutable.insert(
                    pool_graphs[inserted], pool_features[inserted]
                )
                inserted += 1
            elif op == "delete":
                live = [
                    g for g in range(len(mutable.database))
                    if not mutable.database.is_deleted(g)
                ]
                if len(live) > 4:  # keep enough graphs to query
                    victim = live[
                        data.draw(
                            st.integers(0, len(live) - 1), label="victim"
                        )
                    ]
                    mutable.delete(victim)
            elif op == "update" and inserted < len(pool_graphs):
                live = [
                    g for g in range(len(mutable.database))
                    if not mutable.database.is_deleted(g)
                ]
                target = live[
                    data.draw(st.integers(0, len(live) - 1), label="target")
                ]
                mutable.update(
                    target, pool_graphs[inserted], pool_features[inserted]
                )
                inserted += 1
            elif op == "compact":
                mutable.compact()
            else:  # query: compare against the oracle mid-program
                theta = thetas[1]
                result = mutable.query(query_fn, theta, 4)
                _assert_identical(
                    result, _oracle_result(mutable, query_fn, theta, 4)
                )
        # Final dual run at two rungs regardless of the drawn program.
        for rung in (1, min(3, len(thetas) - 1)):
            theta = thetas[rung]
            result = mutable.query(query_fn, theta, 5)
            _assert_identical(
                result, _oracle_result(mutable, query_fn, theta, 5)
            )
        mutable.close()

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_tombstone_of_reinserted_id(self, tmp_path, num_shards):
        """Delete a graph, re-insert identical content: the tombstone
        masks only the old id and the clone answers as a fresh graph."""
        mutable, db = _make_mutable(tmp_path, num_shards)
        theta = rungs(db.graphs, DIST)[1]
        victim = 3
        content = db[victim]
        features = db.features[victim]
        assert mutable.delete(victim) is True
        assert mutable.delete(victim) is False  # idempotent
        clone = mutable.insert(content, features)
        assert clone == len(mutable.database) - 1
        assert mutable.database.is_deleted(victim)
        assert not mutable.database.is_deleted(clone)
        result = mutable.query(lambda g: True, theta, 5)
        _assert_identical(
            result, _oracle_result(mutable, lambda g: True, theta, 5)
        )
        assert victim not in result.answer
        # Same invariant after the clone is absorbed into the base.
        mutable.compact()
        result = mutable.query(lambda g: True, theta, 5)
        _assert_identical(
            result, _oracle_result(mutable, lambda g: True, theta, 5)
        )
        mutable.close()

    def test_update_returns_fresh_id_and_masks_old(self, tmp_path):
        mutable, db = _make_mutable(tmp_path, 1)
        new_id = mutable.update(5, db[20], db.features[20])
        assert new_id == len(mutable.database) - 1
        assert mutable.database.is_deleted(5)
        with pytest.raises(ValueError):
            mutable.update(5, db[21], db.features[21])  # already deleted
        mutable.close()

    def test_compaction_during_query_via_rw_latch(self, tmp_path):
        """Queries racing an online compaction (and the generation swap
        under the write latch) all see a consistent index and answer
        bit-identically to the oracle."""
        mutable, db = _make_mutable(tmp_path, 4)
        for g in range(18, 24):
            mutable.insert(db[g], db.features[g])
        mutable.delete(2)
        theta = rungs(db.graphs, DIST)[1]
        oracle = _oracle_result(mutable, lambda g: True, theta, 4)
        results, errors = [], []

        def _query_loop():
            try:
                for _ in range(3):
                    results.append(mutable.query(lambda g: True, theta, 4))
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=_query_loop) for _ in range(3)]
        for t in threads:
            t.start()
        report = mutable.compact()
        for t in threads:
            t.join()
        assert not errors
        assert report["generation"] == 1
        assert len(results) == 9
        for result in results:
            _assert_identical(result, oracle)
        mutable.close()


class TestCompactionCrashSafety:
    @pytest.mark.parametrize("stage", [
        "delta.compact.shard", "delta.compact.commit",
    ])
    def test_crash_rolls_back_and_reports_once(self, tmp_path, stage):
        mutable, db = _make_mutable(tmp_path, 4)
        for g in range(18, 23):
            mutable.insert(db[g], db.features[g])
        theta = rungs(db.graphs, DIST)[1]
        oracle = _oracle_result(mutable, lambda g: True, theta, 4)
        faults.install(faults.FaultPlan(abort_after_stage=stage))
        try:
            with pytest.raises(CompactionError) as excinfo:
                mutable.compact()
        finally:
            faults.clear()
        assert isinstance(excinfo.value.__cause__, faults.SimulatedCrash)
        # Rolled back: old generation serving, failure counted once.
        assert mutable.generation == 0
        assert mutable.compactions == 0
        assert mutable.compaction_failures == 1
        assert mutable.memtable_size == 5
        _assert_identical(
            mutable.query(lambda g: True, theta, 4), oracle
        )
        # The manifest on disk still loads the old generation.
        reloaded = ShardedIndex.load(
            mutable.manifest_path, mutable.database.subset(range(18)), DIST
        )
        assert reloaded.manifest.num_graphs == 18
        # A clean retry absorbs everything.
        report = mutable.compact()
        assert report["absorbed"] == 5
        assert mutable.generation == 1
        _assert_identical(
            mutable.query(lambda g: True, theta, 4), oracle
        )
        mutable.close()

    def test_single_index_commit_crash_keeps_artifact(self, tmp_path):
        mutable, db = _make_mutable(tmp_path, 1)
        mutable.insert(db[20], db.features[20])
        before = (tmp_path / "index.npz").read_bytes()
        faults.install(
            faults.FaultPlan(abort_after_stage="delta.compact.commit")
        )
        try:
            with pytest.raises(CompactionError):
                mutable.compact()
        finally:
            faults.clear()
        assert (tmp_path / "index.npz").read_bytes() == before
        mutable.close()


class TestJournal:
    def test_replay_reproduces_database(self, tmp_path):
        mutable, db = _make_mutable(tmp_path, 1, journal=True)
        mutable.insert(db[20], db.features[20])
        mutable.delete(4)
        mutable.update(7, db[21], db.features[21])
        base = db.subset(range(18))
        save_database(base, tmp_path / "base.jsonl")
        mutable.close()

        journal = MutationJournal(tmp_path / "m.journal")
        replayed = load_database(tmp_path / "base.jsonl")
        counts = journal.replay_into(replayed)
        assert counts == {"inserts": 1, "deletes": 1, "updates": 1}
        assert len(replayed) == len(mutable.database)
        assert set(replayed.deleted) == set(mutable.database.deleted)
        journal.close()

    def test_torn_tail_is_truncated_with_warning(self, tmp_path):
        journal = MutationJournal(tmp_path / "j")
        journal.append_delete(3)
        journal.close()
        with (tmp_path / "j").open("a") as fh:
            fh.write('{"record": {"op": "delete", "gid"')  # crash mid-append
        with pytest.warns(RuntimeWarning, match="torn final journal"):
            reopened = MutationJournal(tmp_path / "j")
        assert reopened.num_records == 1
        reopened.close()
        # The truncation repaired the file: a third open is silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            MutationJournal(tmp_path / "j").close()

    def test_midfile_corruption_raises(self, tmp_path):
        journal = MutationJournal(tmp_path / "j")
        journal.append_delete(3)
        journal.append_delete(4)
        journal.close()
        lines = (tmp_path / "j").read_text().splitlines()
        lines[1] = lines[1][:-10] + "corrupted}"
        (tmp_path / "j").write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="intact records after"):
            MutationJournal(tmp_path / "j")

    def test_wrong_schema_raises(self, tmp_path):
        from repro.delta.journal import _encode

        (tmp_path / "j").write_text(
            _encode({"op": "open", "schema": "other/v9"}) + "\n"
        )
        with pytest.raises(JournalError, match="unsupported journal schema"):
            MutationJournal(tmp_path / "j")


class TestFacade:
    def test_open_index_autodetects_and_wraps(self, tmp_path):
        db = random_database(seed=81, size=20, num_features=3)
        index = NBIndex.build(
            db, DIST, num_vantage_points=4,
            seed=np.random.default_rng(0),
        )
        save_index(index, tmp_path / "index.npz")
        manifest = build_shards(
            db, DIST, num_shards=2, out_dir=tmp_path / "bundle",
            num_vantage_points=4, seed=0,
        )
        single = repro.open_index(tmp_path / "index.npz", db)
        assert isinstance(single, NBIndex) and single.mutable is False
        sharded = repro.open_index(tmp_path / "bundle", db)  # directory
        assert isinstance(sharded, ShardedIndex)
        explicit = repro.open_index(manifest, db, shards=2)
        assert explicit.num_shards == 2
        with pytest.raises(ValueError, match="caller required 3"):
            repro.open_index(manifest, db, shards=3)
        mutable = repro.open_index(tmp_path / "index.npz", db, mutable=True)
        assert isinstance(mutable, MutableIndex) and mutable.mutable is True
        mutable.close()

    def test_readonly_mutations_raise_typed(self, tmp_path):
        db = random_database(seed=82, size=12, num_features=3)
        index = NBIndex.build(
            db, DIST, num_vantage_points=3,
            seed=np.random.default_rng(0),
        )
        for method, args in [
            ("delete", (0,)),
            ("update", (0, db[1], db.features[1])),
            ("compact", ()),
        ]:
            with pytest.raises(ReadOnlyIndexError, match="mutable=True"):
                getattr(index, method)(*args)
        manifest = build_shards(
            db, DIST, num_shards=2, out_dir=tmp_path / "bundle",
            num_vantage_points=3, seed=0,
        )
        sharded = ShardedIndex.load(manifest, db, DIST)
        with pytest.raises(ReadOnlyIndexError):
            sharded.insert(db[0], db.features[0])

    def test_journal_reopen_restores_mutations(self, tmp_path):
        db = random_database(seed=84, size=22, num_features=3)
        base = db.subset(range(16))
        index = NBIndex.build(
            base, DIST, num_vantage_points=4,
            seed=np.random.default_rng(0),
        )
        save_index(index, tmp_path / "index.npz")
        save_database(base, tmp_path / "base.jsonl")
        mutable = repro.open_index(
            tmp_path / "index.npz", tmp_path / "base.jsonl",
            mutable=True, journal=tmp_path / "m.journal",
        )
        theta = rungs(base.graphs, DIST)[1]
        for g in range(16, 20):
            mutable.insert(db[g], db.features[g])
        mutable.delete(1)
        first = mutable.query(lambda g: True, theta, 4)
        mutable.close()
        reopened = repro.open_index(
            tmp_path / "index.npz", tmp_path / "base.jsonl",
            mutable=True, journal=tmp_path / "m.journal",
        )
        assert reopened.memtable_size == 4
        assert reopened.tombstones == 1
        _assert_identical(
            reopened.query(lambda g: True, theta, 4), first
        )
        reopened.close()

    def test_saved_database_roundtrips_tombstones(self, tmp_path):
        db = random_database(seed=85, size=10, num_features=3)
        db.mark_deleted(2)
        db.mark_deleted(7)
        save_database(db, tmp_path / "db.jsonl")
        loaded = load_database(tmp_path / "db.jsonl")
        assert set(loaded.deleted) == {2, 7}
        assert len(loaded) == 10
