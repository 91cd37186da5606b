"""Synthetic dataset generators: determinism, statistics, and the geometric
properties the experiments depend on (DESIGN.md §3)."""

import numpy as np
import pytest

from repro.datasets import (
    amazon_like,
    calibrate_theta,
    dblp_like,
    dud_like,
    extract_two_hop,
    load,
    sample_block_model,
)
from repro.datasets.dud import NUM_TARGETS, _make_molecule, _make_outlier
from repro.ged import StarDistance
from repro.graphs import quartile_relevance
from repro.utils.rng import ensure_rng


class TestDeterminism:
    @pytest.mark.parametrize("generator", [dud_like, dblp_like, amazon_like])
    def test_same_seed_same_database(self, generator):
        a = generator(num_graphs=30, seed=42)
        b = generator(num_graphs=30, seed=42)
        assert np.allclose(a.features, b.features)
        for g1, g2 in zip(a, b):
            assert g1 == g2

    @pytest.mark.parametrize("generator", [dud_like, dblp_like, amazon_like])
    def test_different_seed_differs(self, generator):
        a = generator(num_graphs=30, seed=1)
        b = generator(num_graphs=30, seed=2)
        assert any(g1 != g2 for g1, g2 in zip(a, b))


class TestDudGeometry:
    def test_feature_dimensionality(self):
        db = dud_like(num_graphs=20, seed=0)
        assert db.num_features == NUM_TARGETS

    def test_sizes_in_molecular_range(self):
        db = dud_like(num_graphs=50, seed=1)
        sizes = [g.num_nodes for g in db]
        assert 10 <= np.mean(sizes) <= 40

    def test_within_family_tighter_than_cross_family(self):
        rng = ensure_rng(0)
        dist = StarDistance()
        fam_a = [_make_molecule(0, rng) for _ in range(8)]
        fam_b = [_make_molecule(3, rng) for _ in range(8)]
        within = [
            dist(fam_a[i], fam_a[j])
            for i in range(8) for j in range(i + 1, 8)
        ]
        cross = [dist(a, b) for a in fam_a for b in fam_b]
        assert np.mean(within) < np.mean(cross)
        assert max(within) < np.mean(cross)

    def test_feature_structure_correlation(self):
        """Relevant molecules should be structurally closer to each other
        than random pairs are — the correlation the DUD experiments rely on."""
        db = dud_like(num_graphs=80, seed=2, outlier_fraction=0.0)
        dist = StarDistance()
        q = quartile_relevance(db, dims=[0, 1], quantile=0.75)
        relevant = [int(i) for i in db.relevant_indices(q)]
        rng = np.random.default_rng(0)
        rel_sample = [
            dist(db[relevant[int(rng.integers(len(relevant)))]],
                 db[relevant[int(rng.integers(len(relevant)))]])
            for _ in range(200)
        ]
        all_sample = [
            dist(db[int(rng.integers(80))], db[int(rng.integers(80))])
            for _ in range(200)
        ]
        assert np.mean(rel_sample) < np.mean(all_sample)

    def test_outliers_are_far_from_families(self):
        rng = ensure_rng(3)
        dist = StarDistance()
        outlier = _make_outlier(rng)
        family = [_make_molecule(0, rng) for _ in range(6)]
        to_family = [dist(outlier, m) for m in family]
        within = [
            dist(family[i], family[j])
            for i in range(6) for j in range(i + 1, 6)
        ]
        assert min(to_family) > np.mean(within)

    def test_validation(self):
        with pytest.raises(ValueError):
            dud_like(num_graphs=0)
        with pytest.raises(ValueError):
            dud_like(num_graphs=5, outlier_fraction=1.5)


class TestBlockModel:
    def test_community_assignment(self):
        network = sample_block_model([10, 20], 0.5, 0.01, rng=0)
        assert network.num_nodes == 30
        assert (network.community[:10] == 0).all()
        assert (network.community[10:] == 1).all()

    def test_intra_denser_than_inter(self):
        network = sample_block_model([40, 40], 0.3, 0.01, rng=1)
        intra = inter = 0
        for u in range(80):
            for v in network.adjacency[u]:
                if v > u:
                    if network.community[u] == network.community[v]:
                        intra += 1
                    else:
                        inter += 1
        assert intra > inter

    def test_edge_count_near_expectation(self):
        network = sample_block_model([50, 50], 0.2, 0.0, rng=2)
        expected = 2 * 0.2 * (50 * 49 / 2)
        assert network.num_edges == pytest.approx(expected, rel=0.25)

    def test_adjacency_symmetric(self):
        network = sample_block_model([20, 20], 0.3, 0.05, rng=3)
        for u in range(40):
            for v in network.adjacency[u]:
                assert u in network.adjacency[v]

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            sample_block_model([10], 0.1, 0.5, rng=0)  # inter > intra


class TestTwoHopExtraction:
    def test_contains_center_and_neighbors(self):
        network = sample_block_model([30], 0.3, 0.0, rng=4)
        center = max(range(30), key=network.degree)
        graph = extract_two_hop(network, center, max_nodes=100, label_prefix="c", rng=0)
        assert graph.num_nodes >= 1 + network.degree(center)

    def test_respects_max_nodes(self):
        network = sample_block_model([60], 0.4, 0.0, rng=5)
        center = max(range(60), key=network.degree)
        graph = extract_two_hop(network, center, max_nodes=10, label_prefix="c", rng=0)
        # 1-hop neighbors are always kept, so the cap is soft there; but the
        # 2-hop set must be pruned.
        assert graph.num_nodes <= max(10, 1 + network.degree(center))

    def test_labels_are_communities(self):
        network = sample_block_model([10, 10], 0.5, 0.1, rng=6)
        graph = extract_two_hop(network, 0, max_nodes=50, label_prefix="c", rng=0)
        assert all(label.startswith("c") for label in graph.node_labels)


class TestRelativeSpreads:
    def test_amazon_more_spread_than_dblp(self):
        """The paper's key geometric contrast (Figs. 5(d) vs 5(e)): Amazon's
        distances are relatively more dispersed, motivating its larger θ."""
        dist = StarDistance()
        rng = np.random.default_rng(0)

        def cv(db):
            vals = []
            for _ in range(250):
                i, j = int(rng.integers(len(db))), int(rng.integers(len(db)))
                if i != j:
                    vals.append(dist(db[i], db[j]))
            vals = np.asarray(vals)
            return vals.std() / vals.mean()

        dblp = dblp_like(num_graphs=80, seed=5)
        amazon = amazon_like(num_graphs=80, seed=5)
        assert cv(amazon) > cv(dblp)


class TestRegistry:
    def test_load_returns_calibrated_spec(self):
        spec = load("dud", StarDistance(), num_graphs=60, seed=3)
        assert spec.name == "dud"
        assert spec.theta > 0
        assert spec.summary()["num_graphs"] == 60

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            load("imaginary", StarDistance())

    def test_calibrate_theta_monotone_in_quantile(self):
        db = dud_like(num_graphs=60, seed=4)
        dist = StarDistance()
        low = calibrate_theta(db, dist, quantile=0.05, rng=0)
        high = calibrate_theta(db, dist, quantile=0.5, rng=0)
        assert low <= high
