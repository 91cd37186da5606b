"""Unit tests for the query (relevance) functions of Table 1."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graphs import GraphDatabase, path_graph
from repro.graphs.relevance import (
    AverageScoreThreshold,
    CallableQuery,
    ExpertiseOverlapQuery,
    JaccardTopicQuery,
    WeightedScoreThreshold,
    _linear_quantile,
    quartile_relevance,
)


class TestAverageScoreThreshold:
    def test_scores_mean_over_dims(self):
        q = AverageScoreThreshold(dims=[0, 2], threshold=0.5)
        matrix = np.array([[1.0, 9.0, 0.0], [0.2, 9.0, 0.2]])
        assert list(q.scores(matrix)) == [0.5, pytest.approx(0.2)]

    def test_call_and_label(self):
        q = AverageScoreThreshold(dims=[0], threshold=0.5)
        assert q([0.6]) is True
        assert q.label([0.6]) == 1
        assert q.label([0.4]) == -1

    def test_mask(self):
        q = AverageScoreThreshold(dims=[0], threshold=0.5)
        mask = q.mask(np.array([[0.6], [0.4], [0.5]]))
        assert list(mask) == [True, False, True]

    def test_empty_dims_rejected(self):
        with pytest.raises(ValueError):
            AverageScoreThreshold(dims=[], threshold=0.5)


class TestWeightedScoreThreshold:
    def test_dot_product(self):
        q = WeightedScoreThreshold([1.0, -1.0], threshold=0.0)
        assert q.score([3.0, 1.0]) == 2.0
        assert q([1.0, 3.0]) is False

    def test_dimension_mismatch(self):
        q = WeightedScoreThreshold([1.0, 2.0], threshold=0.0)
        with pytest.raises(ValueError, match="dim"):
            q.scores(np.zeros((2, 3)))


class TestJaccardTopicQuery:
    def test_exact_match(self):
        q = JaccardTopicQuery(topics=[0, 1], num_topics=4, threshold=1.0)
        assert q([1, 1, 0, 0]) is True
        assert q([1, 1, 1, 0]) is False  # union grows

    def test_partial_overlap_value(self):
        q = JaccardTopicQuery(topics=[0], num_topics=3, threshold=0.0)
        # g = {0, 1}: |∩|=1, |∪|=2
        assert q.score([1, 1, 0]) == pytest.approx(0.5)

    def test_no_topic_graph(self):
        q = JaccardTopicQuery(topics=[0], num_topics=2, threshold=0.5)
        assert q.score([0, 0]) == 0.0

    def test_empty_topics_rejected(self):
        with pytest.raises(ValueError):
            JaccardTopicQuery(topics=[], num_topics=3, threshold=0.5)

    def test_out_of_range_topic_rejected(self):
        with pytest.raises(ValueError):
            JaccardTopicQuery(topics=[5], num_topics=3, threshold=0.5)


class TestExpertiseOverlapQuery:
    def test_intersection_count(self):
        q = ExpertiseOverlapQuery(expertise=[0, 2], num_areas=4, threshold=2.0)
        assert q([1, 0, 1, 0]) is True
        assert q([1, 0, 0, 1]) is False


class TestCallableQuery:
    def test_adapts_callable(self):
        q = CallableQuery(lambda row: float(row.sum()), threshold=1.0)
        matrix = np.array([[0.5, 0.6], [0.1, 0.2]])
        assert list(q.mask(matrix)) == [True, False]


class TestQuartileRelevance:
    def _db(self):
        graphs = [path_graph(["C"]) for _ in range(8)]
        return GraphDatabase(graphs, np.arange(8.0))

    def test_top_quartile(self):
        db = self._db()
        q = quartile_relevance(db)
        relevant = db.relevant_indices(q)
        # Scores 0..7, 75th percentile = 5.25 → {6, 7}... threshold is
        # inclusive so values >= quantile qualify.
        assert set(int(i) for i in relevant) == {6, 7}

    def test_custom_quantile(self):
        db = self._db()
        q = quartile_relevance(db, quantile=0.5)
        assert len(db.relevant_indices(q)) >= 4

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            quartile_relevance(self._db(), quantile=1.5)

    def test_dims_subset(self):
        graphs = [path_graph(["C"]) for _ in range(4)]
        feats = np.array([[0.0, 9.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        db = GraphDatabase(graphs, feats)
        q = quartile_relevance(db, dims=[0], quantile=0.5)
        relevant = set(int(i) for i in db.relevant_indices(q))
        assert 3 in relevant and 0 not in relevant


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.sampled_from([0.0, 0.25, 1 / 3, 1.0]),  # ties
            st.floats(-1e6, 1e6, allow_nan=False),
        ),
        min_size=1, max_size=40,
    ),
    q=st.one_of(
        st.sampled_from([1e-12, 0.25, 0.5, 0.75, 1 - 1e-12, 1 - 2**-53]),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    ),
)
@example(values=[0.5], q=0.75)
@example(values=[1.0, 0.0], q=1e-12)
@example(values=[1.0, 0.0], q=1 - 1e-12)
@example(values=[0.25, 0.25, 1.0, 0.25], q=0.75)
def test_linear_quantile_is_numpys_quantile_bit_for_bit(values, q):
    """Ties, n ∈ {1, 2} and q near 0 and 1 included."""
    values = np.asarray(values)
    assert _linear_quantile(values.copy(), q) == float(np.quantile(values, q))
