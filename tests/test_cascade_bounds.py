"""Property tests: every per-pair bound is a true lower bound.

Hypothesis drives random labeled graphs through each pure per-pair bound
of :mod:`repro.ged.bounds` (and Zeng's star bound) and checks it never
exceeds exact GED — the soundness obligation that makes the ε = 0 query
filter bit-identical.  The structural bounds carry the same obligation
against the (unnormalized) star metric — there they do not pay as
per-pair post-filters (EXPERIMENTS.md) but may return as *coordinates* of
the Chebyshev bound (ROADMAP) — the vantage sandwich is checked against
random vantage sets, and the vectorized
:class:`~repro.cascade.features.StageFeatures` form, as the star columns'
fill writes it, must agree exactly with the pure per-pair reference it
accelerates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.starbatch import StarColumns
from repro.ged import (
    ExactGED,
    StarDistance,
    assignment_lower_bound,
    degree_lower_bound,
    label_lower_bound,
    star_ged_lower_bound,
)
from repro.graphs import path_graph
from tests.strategies import graphs

exact = ExactGED()
star = StarDistance()
LOWER_BOUNDS = (label_lower_bound, assignment_lower_bound, star_ged_lower_bound)

_TOL = 1e-9


class TestLowerBoundsExactGED:
    """``lb(g, h) <= GED(g, h)`` for every shipped pure bound."""

    @settings(max_examples=40, deadline=None)
    @given(graphs(), graphs(), st.sampled_from(LOWER_BOUNDS))
    def test_every_stage_lower_bounds_exact(self, g, h, bound):
        assert bound(g, h) <= exact(g, h) + _TOL

    @settings(max_examples=40, deadline=None)
    @given(graphs(), graphs())
    def test_degree_term_lower_bounds_exact(self, g, h):
        assert degree_lower_bound(g, h) <= exact(g, h) + _TOL

    @settings(max_examples=25, deadline=None)
    @given(graphs())
    def test_zero_on_identical(self, g):
        for bound in (*LOWER_BOUNDS, degree_lower_bound):
            assert bound(g, g) == pytest.approx(0.0, abs=_TOL)


class TestLowerBoundsStarMetric:
    """The structural bounds also lower-bound the engine's default
    (unnormalized) star metric — what would let them serve as extra
    coordinates of a ``StarDistance`` index."""

    @settings(max_examples=40, deadline=None)
    @given(graphs(), graphs())
    def test_label_size_lower_bounds_star(self, g, h):
        assert label_lower_bound(g, h) <= star(g, h) + _TOL

    @settings(max_examples=40, deadline=None)
    @given(graphs(), graphs())
    def test_assignment_lower_bounds_star(self, g, h):
        assert assignment_lower_bound(g, h) <= star(g, h) + _TOL

    @settings(max_examples=40, deadline=None)
    @given(graphs(), graphs())
    def test_star_stage_lower_bounds_star_trivially(self, g, h):
        # Circular but still true: the scaled-down assignment value
        # never exceeds the star distance.
        assert star_ged_lower_bound(g, h) <= star(g, h) + _TOL


class TestVantageSandwich:
    """Theorem 4: ``|d(v,g) − d(v,h)| ≤ d(g,h) ≤ d(v,g) + d(v,h)``."""

    @settings(max_examples=30, deadline=None)
    @given(graphs(), graphs(), graphs())
    def test_lipschitz_sandwich_star(self, v, g, h):
        d = star(g, h)
        assert abs(star(v, g) - star(v, h)) <= d + _TOL
        assert d <= star(v, g) + star(v, h) + _TOL

    @settings(max_examples=15, deadline=None)
    @given(graphs(nodes=st.integers(1, 4)), graphs(nodes=st.integers(1, 4)),
           graphs(nodes=st.integers(1, 4)))
    def test_lipschitz_sandwich_exact(self, v, g, h):
        d = exact(g, h)
        assert abs(exact(v, g) - exact(v, h)) <= d + _TOL
        assert d <= exact(v, g) + exact(v, h) + _TOL


class TestVectorizedAgreesWithReference:
    """The batch :class:`StageFeatures` form equals the pure bound."""

    @staticmethod
    def features(graphs, store=None):
        """The feature rows of every graph, filled by a store's fill."""
        store = StarColumns() if store is None else store
        store.fill(graphs, np.arange(len(graphs)))
        return store.features

    @settings(max_examples=25, deadline=None)
    @given(st.lists(graphs(), min_size=1, max_size=6), graphs())
    def test_batch_matches_pairwise(self, graphs, source):
        features = self.features(graphs)
        rows = np.arange(len(graphs))
        assign = features.assignment_lb(source, rows)
        for i, target in enumerate(graphs):
            assert assign[i] == pytest.approx(
                assignment_lower_bound(source, target), abs=_TOL
            )

    @settings(max_examples=15, deadline=None)
    @given(st.lists(graphs(), min_size=1, max_size=6))
    def test_a_row_source_is_exact_across_a_wider_dtype(self, graphs):
        """An id source reads its own row, ``==`` the pure bound — also
        after a 300-node graph widens the one-byte matrices."""
        store = StarColumns()
        features = self.features(graphs, store)
        assert features.label_counts.dtype == np.uint8
        graphs = graphs + [path_graph(["C"] * 299 + ["N"])]
        assert self.features(graphs, store) is features
        assert features.label_counts.dtype == np.uint16
        rows = np.arange(len(graphs))
        for source, graph in enumerate(graphs):
            want = [assignment_lower_bound(graph, target) for target in graphs]
            assert features.assignment_lb(source, rows).tolist() == want
            assert features.assignment_lb(graph, rows).tolist() == want

    @settings(max_examples=15, deadline=None)
    @given(st.lists(graphs(nodes=st.integers(1, 3)), min_size=1, max_size=4),
           st.lists(graphs(nodes=st.integers(1, 7)), min_size=1, max_size=3),
           graphs(nodes=st.integers(1, 7)))
    def test_incremental_sync_matches_pairwise(self, first, second, source):
        """Rows appended by a later fill of a grown list (wider degrees,
        new label columns) still reproduce the pure bounds — the
        live-insert path."""
        store = StarColumns()
        self.features(first, store)
        graphs = first + second
        features = self.features(graphs, store)
        rows = np.arange(len(graphs))
        assign = features.assignment_lb(source, rows)
        for i, target in enumerate(graphs):
            assert assign[i] == pytest.approx(
                assignment_lower_bound(source, target), abs=_TOL
            )
