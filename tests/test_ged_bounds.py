"""Cheap GED bounds: validity against exact GED and the star distance."""

from hypothesis import given, settings

from repro.ged import (
    ExactGED,
    StarDistance,
    edge_count_lower_bound,
    label_lower_bound,
    size_lower_bound,
    trivial_upper_bound,
)
from repro.graphs import LabeledGraph, cycle_graph, path_graph
from tests.strategies import graphs


class TestKnownValues:
    def test_label_bound_disjoint(self):
        a = path_graph(["A", "A"])
        b = path_graph(["B", "B", "B"])
        # max(2,3) - 0 common
        assert label_lower_bound(a, b) == 3.0

    def test_label_bound_partial(self):
        a = LabeledGraph(["C", "C", "O"])
        b = LabeledGraph(["C", "N"])
        assert label_lower_bound(a, b) == 2.0  # max(3,2) - 1 common

    def test_edge_count_bound(self):
        a = cycle_graph(["C"] * 4)  # 4 edges
        b = path_graph(["C"] * 3)  # 2 edges
        assert edge_count_lower_bound(a, b) == 2.0

    def test_size_bound_additive(self):
        a = cycle_graph(["C"] * 4)
        b = path_graph(["N"] * 3)
        assert size_lower_bound(a, b) == label_lower_bound(a, b) + 2.0

    def test_trivial_upper_bound(self):
        a = path_graph(["C", "C"])
        b = path_graph(["N"])
        assert trivial_upper_bound(a, b) == 3 + 1


class TestValidity:
    @settings(max_examples=30, deadline=None)
    @given(graphs(), graphs())
    def test_bounds_sandwich_exact_ged(self, a, b):
        exact = ExactGED()(a, b)
        assert size_lower_bound(a, b) <= exact + 1e-9
        assert exact <= trivial_upper_bound(a, b) + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(graphs(), graphs())
    def test_size_bound_also_lower_bounds_star_distance(self, a, b):
        # The C-tree pruning rule relies on this domination (see
        # repro.baselines.ctree docstring).
        assert size_lower_bound(a, b) <= StarDistance()(a, b) + 1e-9

    def test_bounds_zero_for_identical(self):
        g = cycle_graph(["C", "N", "O"])
        assert size_lower_bound(g, g) == 0.0
