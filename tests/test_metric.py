"""Distance facades: counting, matrices, axiom checking."""

import numpy as np

from repro.ged import (
    CountingDistance,
    StarDistance,
    check_metric_axioms,
    pairwise_matrix,
)
from repro.graphs import path_graph


def _graphs():
    return [
        path_graph(["C", "C"]),
        path_graph(["C", "N"]),
        path_graph(["O", "O", "O"]),
    ]


class TestCountingDistance:
    def test_counts_calls(self):
        counting = CountingDistance(StarDistance())
        g = _graphs()
        counting(g[0], g[1])
        counting(g[0], g[2])
        assert counting.calls == 2
        counting.reset()
        assert counting.calls == 0


class TestPairwiseMatrix:
    def test_symmetric_zero_diagonal(self):
        matrix = pairwise_matrix(_graphs(), StarDistance())
        assert matrix.shape == (3, 3)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_evaluates_each_pair_once(self):
        counting = CountingDistance(StarDistance())
        pairwise_matrix(_graphs(), counting)
        assert counting.calls == 3  # C(3, 2)


class TestCheckMetricAxioms:
    def test_accepts_true_metric(self):
        assert check_metric_axioms(_graphs(), StarDistance()) == []

    def test_detects_asymmetry(self):
        calls = []

        def broken(g1, g2):
            calls.append(1)
            return float(len(calls) % 7)  # order-dependent garbage

        violations = check_metric_axioms(_graphs(), broken)
        assert violations  # something must be flagged

    def test_detects_triangle_violation(self):
        g = _graphs()
        values = {
            (0, 1): 1.0, (1, 0): 1.0,
            (0, 2): 10.0, (2, 0): 10.0,
            (1, 2): 1.0, (2, 1): 1.0,
        }

        def non_metric(g1, g2):
            a, b = g1.graph_id, g2.graph_id
            if a == b:
                return 0.0
            return values[(a, b)]

        for i, graph in enumerate(g):
            graph.graph_id = i
        violations = check_metric_axioms(g, non_metric)
        assert any("triangle" in v for v in violations)
