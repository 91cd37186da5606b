"""Database soft-deletion."""

import pytest

from repro.baselines import disc_greedy
from repro.core import baseline_greedy
from repro.ged import StarDistance
from repro.graphs import quartile_relevance
from repro.index import NBIndex
from tests.conftest import random_database
from tests.test_nbindex import assert_valid_greedy_trajectory


def _setup(seed=0, size=40):
    db = random_database(seed=seed, size=size)
    dist = StarDistance()
    q = quartile_relevance(db, quantile=0.3)
    return db, dist, q


class TestSoftDeletion:
    def test_deleted_not_relevant(self):
        db, dist, q = _setup(seed=1)
        before = set(int(i) for i in db.relevant_indices(q))
        victim = next(iter(before))
        db.mark_deleted(victim)
        after = set(int(i) for i in db.relevant_indices(q))
        assert victim not in after
        assert after == before - {victim}

    def test_restore(self):
        db, dist, q = _setup(seed=2)
        victim = int(db.relevant_indices(q)[0])
        db.mark_deleted(victim)
        db.restore(victim)
        assert victim in set(int(i) for i in db.relevant_indices(q))
        assert not db.is_deleted(victim)

    def test_deleted_never_in_answers_or_coverage(self):
        db, dist, q = _setup(seed=3)
        relevant = [int(i) for i in db.relevant_indices(q)]
        for victim in relevant[:3]:
            db.mark_deleted(victim)
        result = baseline_greedy(db, dist, q, 5.0, 5)
        assert not (set(result.answer) & set(relevant[:3]))
        assert not (result.covered & set(relevant[:3]))

    def test_disc_respects_deletions(self):
        db, dist, q = _setup(seed=4)
        victim = int(db.relevant_indices(q)[0])
        db.mark_deleted(victim)
        result = disc_greedy(db, dist, q, 5.0)
        assert victim not in result.covered
        assert result.pi == pytest.approx(1.0)  # covers the *remaining* set

    def test_nbindex_respects_deletions(self):
        db, dist, q = _setup(seed=5)
        index = NBIndex.build(db, dist, num_vantage_points=4, seed=0)
        relevant = [int(i) for i in db.relevant_indices(q)]
        db.mark_deleted(relevant[0])
        result = index.query(q, 5.0, 4)
        assert relevant[0] not in result.answer
        assert relevant[0] not in result.covered
        assert_valid_greedy_trajectory(db, dist, q, 5.0, result)

    def test_out_of_range_rejected(self):
        db, _, _ = _setup(seed=6, size=10)
        with pytest.raises(ValueError):
            db.mark_deleted(10)

    def test_deleted_property(self):
        db, _, _ = _setup(seed=7, size=10)
        db.mark_deleted(3)
        db.mark_deleted(5)
        assert db.deleted == frozenset({3, 5})


class TestSubsetAndDeletionInteraction:
    def test_subset_does_not_carry_deletions(self):
        db, _, _ = _setup(seed=10, size=12)
        db.mark_deleted(2)
        sub = db.subset(range(6))
        assert sub.deleted == frozenset()

    def test_append_then_delete_roundtrip(self):
        from repro.graphs import path_graph

        db, _, q = _setup(seed=11, size=12)
        new_id = db.append(path_graph(["C", "N"]),
                           [10.0] * db.num_features)
        db.mark_deleted(new_id)
        assert new_id not in set(int(i) for i in db.relevant_indices(q))
        db.restore(new_id)
        assert new_id in set(int(i) for i in db.relevant_indices(q))
