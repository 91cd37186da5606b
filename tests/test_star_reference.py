"""The vectorized star cost matrix against a naive reference implementation.

``repro.ged.star`` computes star-to-star costs with a closed form
(root mismatch + (|Δdeg| + L1 of token counts) / 2) in numpy; this
test re-derives every entry from first principles — explicit multiset
matching of branch tokens — and the padded assignment against a
brute-force Hungarian run, so a vectorization bug cannot hide.
"""

from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from repro.ged.star import StarDistance, _padded_cost_matrix, _star_cost_matrix, _StarProfile
from tests.conftest import random_connected_graph


def naive_star_cost(g1, v1, g2, v2) -> float:
    """Star ground cost from the definition: root mismatch plus the optimal
    unit-cost matching between branch-token multisets,
    ``max(|B1|, |B2|) − |B1 ∩ B2|``."""
    root = 0.0 if g1.node_label(v1) == g2.node_label(v2) else 1.0
    b1 = Counter(
        (g1.edge_label(v1, u), g1.node_label(u)) for u in g1.neighbors(v1)
    )
    b2 = Counter(
        (g2.edge_label(v2, u), g2.node_label(u)) for u in g2.neighbors(v2)
    )
    common = sum((b1 & b2).values())
    return root + max(sum(b1.values()), sum(b2.values())) - common


class TestCostMatrixAgainstNaive:
    @pytest.mark.parametrize("seed", range(8))
    def test_every_entry_matches(self, seed):
        rng = np.random.default_rng(seed)
        g1 = random_connected_graph(rng, int(rng.integers(2, 8)))
        g2 = random_connected_graph(rng, int(rng.integers(2, 8)))
        matrix = _star_cost_matrix(_StarProfile(g1), _StarProfile(g2))
        for v1 in g1.nodes():
            for v2 in g2.nodes():
                assert matrix[v1, v2] == pytest.approx(
                    naive_star_cost(g1, v1, g2, v2)
                ), (seed, v1, v2)


class TestPaddedAssignment:
    @pytest.mark.parametrize("seed", range(5))
    def test_distance_equals_bruteforce_assignment(self, seed):
        rng = np.random.default_rng(seed + 100)
        g1 = random_connected_graph(rng, int(rng.integers(2, 6)))
        g2 = random_connected_graph(rng, int(rng.integers(2, 6)))
        padded = _padded_cost_matrix(_StarProfile(g1), _StarProfile(g2))
        rows, cols = linear_sum_assignment(padded)
        brute = float(padded[rows, cols].sum())
        assert StarDistance()(g1, g2) == pytest.approx(brute)

    def test_padding_blocks(self):
        rng = np.random.default_rng(0)
        g1 = random_connected_graph(rng, 3)
        g2 = random_connected_graph(rng, 2)
        padded = _padded_cost_matrix(_StarProfile(g1), _StarProfile(g2))
        assert padded.shape == (5, 5)
        # Deletion diagonal: 1 + degree.
        for v in g1.nodes():
            assert padded[v, 2 + v] == 1.0 + g1.degree(v)
        # Null-null block is free.
        assert (padded[3:, 2:] == 0.0).all()
