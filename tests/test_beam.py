"""Beam-search GED: upper-bound validity and width behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ged import BeamGED, BipartiteGED, ExactGED
from repro.graphs import LabeledGraph, cycle_graph, path_graph
from tests.conftest import random_connected_graph
from tests.strategies import graphs

exact = ExactGED()


class TestUpperBound:
    @settings(max_examples=25, deadline=None)
    @given(graphs(), graphs(), st.integers(min_value=1, max_value=6))
    def test_always_upper_bounds_exact(self, a, b, width):
        assert BeamGED(beam_width=width)(a, b) >= exact(a, b) - 1e-9

    def test_zero_for_identical(self):
        g = cycle_graph(["C", "N", "O"])
        assert BeamGED(beam_width=2)(g, g) == 0.0

    def test_empty_graphs(self):
        a = LabeledGraph([])
        b = path_graph(["C", "N"])
        assert BeamGED()(a, b) == 3.0
        assert BeamGED()(b, a) == 3.0


class TestWidthBehaviour:
    @pytest.mark.parametrize("seed", range(5))
    def test_wide_beam_reaches_exact_on_small_graphs(self, seed):
        rng = np.random.default_rng(seed)
        a = random_connected_graph(rng, int(rng.integers(2, 5)))
        b = random_connected_graph(rng, int(rng.integers(2, 5)))
        wide = BeamGED(beam_width=4096)
        assert wide(a, b) == pytest.approx(exact(a, b))

    def test_wider_beams_do_not_hurt_on_average(self):
        rng = np.random.default_rng(7)
        narrow = BeamGED(beam_width=1)
        wide = BeamGED(beam_width=16)
        total_narrow = total_wide = 0.0
        for _ in range(12):
            a = random_connected_graph(rng, int(rng.integers(3, 7)))
            b = random_connected_graph(rng, int(rng.integers(3, 7)))
            total_narrow += narrow(a, b)
            total_wide += wide(a, b)
        assert total_wide <= total_narrow + 1e-9

    def test_often_tighter_than_bipartite(self):
        """Beam(16) should usually match or beat the one-shot bipartite
        approximation (both are upper bounds on exact)."""
        rng = np.random.default_rng(8)
        beam = BeamGED(beam_width=16)
        bipartite = BipartiteGED()
        wins = ties = losses = 0
        for _ in range(15):
            a = random_connected_graph(rng, int(rng.integers(3, 7)))
            b = random_connected_graph(rng, int(rng.integers(3, 7)))
            bv, pv = beam(a, b), bipartite(a, b)
            if bv < pv - 1e-9:
                wins += 1
            elif bv > pv + 1e-9:
                losses += 1
            else:
                ties += 1
        assert wins + ties >= losses

    def test_width_validation(self):
        with pytest.raises(ValueError):
            BeamGED(beam_width=0)
