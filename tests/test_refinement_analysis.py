"""Refinement sessions, analysis metrics, and distance distributions."""

import numpy as np
import pytest

from repro.analysis import evaluate_answer, evaluate_answers, sample_distances
from repro.core import RefinementSession, baseline_greedy
from repro.ged import StarDistance
from repro.graphs import quartile_relevance
from repro.index import NBIndex
from tests.conftest import random_database


def _index(seed=0, size=50):
    db = random_database(seed=seed, size=size)
    dist = StarDistance()
    q = quartile_relevance(db, quantile=0.3)
    index = NBIndex.build(db, dist, num_vantage_points=5, seed=seed)
    return db, dist, q, index


class TestRefinementSession:
    def test_zoom_requires_initial_query(self):
        _, _, q, index = _index()
        session = RefinementSession(index, q, k=3)
        with pytest.raises(RuntimeError):
            session.zoom_in()

    def test_zoom_trajectory(self):
        _, _, q, index = _index(seed=1)
        session = RefinementSession(index, q, k=3)
        session.query(5.0)
        session.zoom_in(0.1)
        session.zoom_out(0.1)
        thetas = [step.theta for step in session.history]
        assert thetas == pytest.approx([5.0, 4.5, 4.95])
        assert session.current_theta == pytest.approx(4.95)
        assert session.current_result is not None

    def test_results_match_direct_queries(self):
        db, dist, q, index = _index(seed=2)
        session = RefinementSession(index, q, k=4)
        refined = session.query(4.0)
        direct = index.query(q, 4.0, 4)
        assert refined.answer == direct.answer

    def test_step_timing_recorded(self):
        _, _, q, index = _index(seed=3)
        session = RefinementSession(index, q, k=2)
        session.query(5.0)
        assert session.history[0].seconds > 0

    def test_k_validation(self):
        _, _, q, index = _index(seed=4, size=20)
        with pytest.raises(ValueError):
            RefinementSession(index, q, k=0)


class TestAnalysisMetrics:
    def test_evaluate_answer_known_values(self):
        neighborhoods = {
            0: frozenset({0, 1, 2}),
            3: frozenset({3}),
        }
        metrics = evaluate_answer([0, 3], neighborhoods, num_relevant=8)
        assert metrics["covered"] == 4
        assert metrics["compression_ratio"] == 2.0
        assert metrics["pi"] == 0.5

    def test_unknown_answer_ids_count_in_size_only(self):
        neighborhoods = {0: frozenset({0, 1})}
        metrics = evaluate_answer([0, 99], neighborhoods, num_relevant=4)
        assert metrics["answer_size"] == 2
        assert metrics["covered"] == 2
        assert metrics["compression_ratio"] == 1.0

    def test_evaluate_answers_consistent_with_query_result(self):
        db = random_database(seed=5, size=40)
        dist = StarDistance()
        q = quartile_relevance(db, quantile=0.3)
        theta = 5.0
        rep = baseline_greedy(db, dist, q, theta, 4)
        evaluated = evaluate_answers(db, dist, q, theta, {"rep": rep.answer})
        assert evaluated["rep"]["pi"] == pytest.approx(rep.pi)
        assert evaluated["rep"]["compression_ratio"] == pytest.approx(
            rep.compression_ratio
        )

    def test_empty_answer(self):
        metrics = evaluate_answer([], {}, num_relevant=5)
        assert metrics["compression_ratio"] == 0.0
        assert metrics["pi"] == 0.0


class TestDistanceDistribution:
    def test_cdf_monotone_and_bounded(self):
        db = random_database(seed=6, size=30)
        distribution = sample_distances(db, StarDistance(), num_pairs=300, rng=0)
        thetas = np.linspace(0, distribution.diameter_estimate, 20)
        cdf = distribution.cdf(thetas)
        assert (np.diff(cdf) >= 0).all()
        assert cdf[0] >= 0.0 and cdf[-1] == pytest.approx(1.0)

    def test_histogram_integrates_to_one(self):
        db = random_database(seed=7, size=30)
        distribution = sample_distances(db, StarDistance(), num_pairs=300, rng=0)
        centers, densities = distribution.histogram(bins=20)
        width = centers[1] - centers[0]
        assert float((densities * width).sum()) == pytest.approx(1.0, rel=1e-6)

    def test_moments_and_quantiles(self):
        db = random_database(seed=8, size=30)
        distribution = sample_distances(db, StarDistance(), num_pairs=200, rng=0)
        assert distribution.mean > 0
        assert distribution.quantile(0.1) <= distribution.quantile(0.9)
