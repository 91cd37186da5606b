"""Cross-module integration: the full pipeline on each synthetic dataset and
through the public facade."""

import pytest

from repro import TopKRepresentativeQuery
from repro.analysis import evaluate_answers
from repro.baselines import disc_greedy, div_topk, traditional_top_k, answer_set_redundancy
from repro.core import baseline_greedy
from repro.datasets import load
from repro.ged import StarDistance
from repro.graphs import quartile_relevance
from repro.index import NBIndex
from tests.test_nbindex import assert_valid_greedy_trajectory


@pytest.fixture(scope="module", params=["dud", "dblp", "amazon"])
def dataset(request):
    dist = StarDistance()
    spec = load(request.param, dist, num_graphs=80, seed=7)
    return spec, dist


class TestFullPipelinePerDataset:
    def test_nbindex_valid_greedy_on_dataset(self, dataset):
        spec, dist = dataset
        q = quartile_relevance(spec.database)
        index = NBIndex.build(
            spec.database, dist, num_vantage_points=8, seed=1,
        )
        result = index.query(q, spec.theta, 5)
        assert_valid_greedy_trajectory(spec.database, dist, q, spec.theta, result)
        assert len(result.answer) >= 1

    def test_quality_ordering_rep_vs_div(self, dataset):
        spec, dist = dataset
        q = quartile_relevance(spec.database)
        theta, k = spec.theta, 5
        rep = baseline_greedy(spec.database, dist, q, theta, k)
        div = div_topk(spec.database, dist, q, theta, k, 1.0)
        assert rep.pi >= div.pi - 1e-9

    def test_disc_covers_everything(self, dataset):
        spec, dist = dataset
        q = quartile_relevance(spec.database)
        result = disc_greedy(spec.database, dist, q, spec.theta)
        assert result.pi == pytest.approx(1.0)


class TestQualitativeContrast:
    def test_representative_answer_more_diverse_than_topk(self):
        """The Fig. 7 phenomenon: under a single-target query (the paper
        uses AChE affinity), the traditional top-k answer collapses onto one
        structural family while REP spreads across families."""
        dist = StarDistance()
        spec = load("dud", dist, num_graphs=100, seed=9,
                    outlier_fraction=0.0)
        q = quartile_relevance(spec.database, dims=[0])
        k = 5
        top = traditional_top_k(spec.database, q, k)
        rep = baseline_greedy(spec.database, dist, q, spec.theta, k)
        top_spread = answer_set_redundancy(spec.database, dist, top)
        rep_spread = answer_set_redundancy(spec.database, dist, rep.answer)
        assert rep_spread["mean"] >= top_spread["mean"]

    def test_rep_covers_more_than_topk(self):
        dist = StarDistance()
        spec = load("dud", dist, num_graphs=100, seed=9)
        q = quartile_relevance(spec.database)
        k = 5
        answers = {
            "topk": traditional_top_k(spec.database, q, k),
            "rep": baseline_greedy(spec.database, dist, q, spec.theta, k).answer,
        }
        evaluated = evaluate_answers(spec.database, dist, q, spec.theta, answers)
        assert evaluated["rep"]["pi"] >= evaluated["topk"]["pi"]


class TestPublicFacade:
    def test_facade_nbindex_and_greedy(self):
        dist = StarDistance()
        spec = load("dud", dist, num_graphs=60, seed=5)
        q = quartile_relevance(spec.database)
        engine = TopKRepresentativeQuery(
            spec.database, dist, num_vantage_points=6, seed=0,
        )
        via_index = engine.run(q, spec.theta, 4)
        via_greedy = engine.run(q, spec.theta, 4, method="greedy")
        assert_valid_greedy_trajectory(
            spec.database, dist, q, spec.theta, via_index
        )
        assert via_index.gains[0] == via_greedy.gains[0]

    def test_facade_unknown_method(self):
        dist = StarDistance()
        spec = load("dud", dist, num_graphs=30, seed=5)
        engine = TopKRepresentativeQuery(spec.database, dist)
        with pytest.raises(ValueError, match="unknown method"):
            engine.run(quartile_relevance(spec.database), spec.theta, 3,
                       method="magic")

    def test_facade_default_distance_and_lazy_index(self):
        dist = StarDistance()
        spec = load("dud", dist, num_graphs=30, seed=6)
        engine = TopKRepresentativeQuery(spec.database, num_vantage_points=4,
                                         seed=0)
        assert "lazy" in repr(engine)
        engine.run(quartile_relevance(spec.database), spec.theta, 2)
        assert "built" in repr(engine)

    def test_facade_session(self):
        dist = StarDistance()
        spec = load("dud", dist, num_graphs=40, seed=6)
        engine = TopKRepresentativeQuery(spec.database, dist,
                                         num_vantage_points=4,
                                         seed=0)
        session = engine.session(quartile_relevance(spec.database))
        a = session.query(spec.theta, 3)
        b = session.query(spec.theta * 1.2, 3)
        assert len(a.answer) >= 1 and len(b.answer) >= 1
