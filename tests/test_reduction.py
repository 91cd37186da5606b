"""The Set-Cover reduction (Theorem 1): executable hardness construction."""


import pytest

from repro.core import (
    SetCoverInstance,
    all_theta_neighborhoods,
    baseline_greedy,
    optimal_answer,
    reduce_set_cover,
)
from repro.ged import check_metric_axioms
from repro.index import NBIndex


def _instance_with_cover():
    # U = {0..4}; {0,1}, {2,3}, {4}, {1,2} — cover of size 3 exists
    # ({0,1}, {2,3}, {4}); no cover of size 2.
    return SetCoverInstance(
        universe_size=5,
        subsets=(
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({4}),
            frozenset({1, 2}),
        ),
    )


class TestSetCoverInstance:
    def test_is_cover(self):
        instance = _instance_with_cover()
        assert instance.is_cover([0, 1, 2])
        assert not instance.is_cover([0, 1])

    def test_rejects_non_covering_family(self):
        with pytest.raises(ValueError, match="jointly cover"):
            SetCoverInstance(universe_size=3, subsets=(frozenset({0}),))

    def test_rejects_out_of_universe(self):
        with pytest.raises(ValueError, match="outside universe"):
            SetCoverInstance(universe_size=2, subsets=(frozenset({0, 5}),))


class TestLookupDistanceMetric:
    def test_three_valued_metric(self):
        instance = _instance_with_cover()
        reduced = reduce_set_cover(instance, theta=1.0)
        sample = list(reduced.database)[:8]
        assert check_metric_axioms(sample, reduced.distance) == []


class TestReductionStructure:
    def test_group_sizes(self):
        instance = _instance_with_cover()
        reduced = reduce_set_cover(instance)
        assert len(reduced.d1_ids) == 4
        assert len(reduced.d2_ids) == 5
        # x = 1 + max element frequency = 1 + 2 (elements 1 and 2 appear twice)
        assert reduced.x == 3
        assert len(reduced.d3_ids) == reduced.x * 4

    def test_neighborhood_encoding(self):
        instance = _instance_with_cover()
        reduced = reduce_set_cover(instance, theta=1.0)
        db, dist = reduced.database, reduced.distance
        # u_j within θ of s_i iff e_j ∈ S_i.
        for i, subset in enumerate(instance.subsets):
            for j in range(instance.universe_size):
                d = dist(db[reduced.d1_ids[i]], db[reduced.d2_ids[j]])
                if j in subset:
                    assert d <= 1.0
                else:
                    assert d > 1.0

    def test_d1_has_highest_representative_power(self):
        instance = _instance_with_cover()
        reduced = reduce_set_cover(instance)
        relevant = list(range(len(reduced.database)))
        neighborhoods = all_theta_neighborhoods(
            reduced.database, reduced.distance, relevant, reduced.theta
        )
        best_d1 = min(len(neighborhoods[g]) for g in reduced.d1_ids)
        worst_other = max(
            len(neighborhoods[g])
            for g in list(reduced.d2_ids) + list(reduced.d3_ids)
        )
        assert best_d1 > worst_other


class TestEquivalence:
    def test_cover_exists_iff_target_coverage_attainable(self):
        instance = _instance_with_cover()
        reduced = reduce_set_cover(instance)
        relevant = list(range(len(reduced.database)))
        neighborhoods = all_theta_neighborhoods(
            reduced.database, reduced.distance, relevant, reduced.theta
        )
        # k = 3: a cover exists, so the optimum hits the target.
        _, covered3 = optimal_answer(
            neighborhoods, relevant, 3, max_candidates=30
        )
        assert covered3 == reduced.target_coverage(3)
        # k = 2: no cover of size 2, so the optimum falls short.
        _, covered2 = optimal_answer(
            neighborhoods, relevant, 2, max_candidates=30
        )
        assert covered2 < reduced.target_coverage(2)

    def test_greedy_recovers_a_cover_when_one_exists(self):
        instance = _instance_with_cover()
        reduced = reduce_set_cover(instance)
        result = baseline_greedy(
            reduced.database, reduced.distance, reduced.query_fn,
            reduced.theta, 3,
        )
        chosen_subsets = reduced.subsets_of_answer(result.answer)
        # Greedy on this instance picks only subset gadgets...
        assert len(chosen_subsets) == 3
        # ...and set-cover greedy achieves a cover here (ln(n) guarantee is
        # loose, but this instance is easy).
        assert instance.is_cover(chosen_subsets)
        assert len(result.covered) == reduced.target_coverage(3)

    def test_reduction_runs_through_nbindex(self):
        """The NB-Index only needs a metric; the reduction's lookup metric
        qualifies, so the full indexed engine solves gadget instances."""
        instance = _instance_with_cover()
        reduced = reduce_set_cover(instance)
        index = NBIndex.build(
            reduced.database, reduced.distance,
            num_vantage_points=4, seed=0,
        )
        result = index.query(reduced.query_fn, reduced.theta, 3)
        assert len(result.covered) == reduced.target_coverage(3)
