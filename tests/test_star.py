"""Star edit distance: metric axioms and the GED sandwich (property-based)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist

from repro.ged import (
    BipartiteGED,
    ExactGED,
    StarDistance,
    bipartite_upper_bound,
    check_metric_axioms,
    star_assignment_value,
    star_ged_lower_bound,
)
from repro.engine.starbatch import BatchStarEvaluator
from repro.ged.star import _star_cost_matrix, _StarProfile
from repro.graphs import (
    GraphDatabase, LabeledGraph, cycle_graph, path_graph, star_graph,
)

# ---------------------------------------------------------------------------
# Hypothesis graph strategy: small random labelled graphs.
# ---------------------------------------------------------------------------
_LABELS = ("C", "N", "O")


@st.composite
def small_graph(draw, max_nodes=6):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    labels = [draw(st.sampled_from(_LABELS)) for _ in range(n)]
    edges = []
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in possible:
        if draw(st.booleans()):
            edges.append((u, v, draw(st.sampled_from(("-", "=")))))
    return LabeledGraph(labels, edges)


class TestBasics:
    def test_identical(self):
        sd = StarDistance()
        g = cycle_graph(["C", "N", "O"])
        assert sd(g, g) == 0.0

    def test_empty_graphs(self):
        sd = StarDistance()
        assert sd(LabeledGraph([]), LabeledGraph([])) == 0.0

    def test_empty_vs_nonempty(self):
        sd = StarDistance()
        g = path_graph(["C", "C"])
        # two stars deleted: (1 + deg) each = 2 + 2
        assert sd(LabeledGraph([]), g) == 4.0

    def test_single_relabel_touches_two_stars(self):
        sd = StarDistance()
        a = path_graph(["C", "C", "O"])
        b = path_graph(["C", "C", "N"])
        # the relabelled vertex's star root (1) + the neighbor's branch (1)
        assert sd(a, b) == 2.0

    def test_symmetry(self):
        sd = StarDistance()
        a = star_graph("N", ["C", "O"])
        b = cycle_graph(["C", "C", "C"])
        assert sd(a, b) == sd(b, a)

    def test_values_are_half_integers(self):
        sd = StarDistance()
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            labels = [_LABELS[int(rng.integers(3))] for _ in range(n)]
            edges = [(i, int(rng.integers(i)), "-") for i in range(1, n)]
            a = LabeledGraph(labels, edges)
            b = path_graph(["C"] * int(rng.integers(1, 6)))
            value = sd(a, b)
            assert value == pytest.approx(round(value * 2) / 2)

    def test_normalized_variant_smaller(self):
        raw = StarDistance()
        norm = StarDistance(normalized=True)
        a = star_graph("C", ["N"] * 4)
        b = path_graph(["C", "C"])
        assert norm(a, b) <= raw(a, b)

    def test_cache_reuse(self):
        sd = StarDistance()
        g = path_graph(["C", "N"])
        h = path_graph(["C", "O"])
        sd(g, h)
        assert len(sd._profiles) == 2
        sd(g, h)
        assert len(sd._profiles) == 2
        sd.clear_cache()
        assert len(sd._profiles) == 0

    def test_cache_survives_id_recycling(self):
        # Profiles are keyed by id(); CPython recycles ids as soon as a
        # graph is collected, so a cache hit must verify the entry was
        # computed for *this* graph.  (Regression: transient graphs in
        # property tests inherited a stale profile and got distances from
        # an unrelated pair.)
        sd = StarDistance()
        reference = path_graph(["C", "C"])
        for _ in range(200):
            g = star_graph("C", ["N"] * 4)
            assert sd(g, reference) == sd(g, reference) == 11.0
            del g  # eligible for collection; its id may be reused

    def test_cache_evicts_collected_graphs(self):
        sd = StarDistance()
        pinned = path_graph(["C", "N"])
        sd(pinned, path_graph(["C", "O"]))  # second arg is transient
        import gc

        gc.collect()
        live = sd._profiles.referents()
        assert pinned in live
        assert sum(g is None for g in live) == 0  # dead entries evicted

    def test_batch_registry_evicts_collected_graphs(self):
        # The batch kernel's registry pinned every graph it profiled,
        # including each throw-away query graph of an M-/C-tree range query.
        # Now only the attached list's graphs get rows; a transient graph,
        # as source or as target, is packed for its call and kept nowhere.
        import gc
        import weakref

        db = GraphDatabase(
            [path_graph(["C", "N"]), path_graph(["C", "C", "N"])], [0.0, 1.0]
        )
        for evaluator in (BatchStarEvaluator(graphs=db.graphs),
                          BatchStarEvaluator()):
            transient = path_graph(["C", "O"])
            gone = weakref.ref(transient)
            evaluator.one_to_many(db[0], [transient, db[1]])
            evaluator.one_to_many(transient, db.graphs)
            evaluator.one_to_many(db[1], db.graphs)
            del transient
            gc.collect()
            assert gone() is None
        owner, store = BatchStarEvaluator(graphs=db.graphs).columns()
        assert owner is db.graphs and list(store.ready) == [1, 1]
        assert store.offsets.tolist() == [0, 2, 5]  # rows for db's graphs only

    def test_batch_registry_survives_id_recycling(self):
        evaluator = BatchStarEvaluator()
        reference = path_graph(["C", "C"])
        for size in range(1, 40):
            g = star_graph("C", ["N"] * (size % 5 + 1))
            assert evaluator(g, reference) == StarDistance()(g, reference)
            del g  # eligible for collection; its id may be reused


def _profile_of_counts(counts: np.ndarray) -> _StarProfile:
    """A star profile whose vertex ``v`` has ``counts[v, j]`` branches of
    token ``j`` (all roots alike, so the ground cost is its branch part)."""
    profile = _StarProfile.__new__(_StarProfile)
    profile.roots = ["C"] * len(counts)
    profile.degrees = counts.sum(axis=1).astype(float)
    profile.token_counts = [
        {("-", str(j)): int(c) for j, c in enumerate(row) if c}
        for row in counts
    ]
    return profile


class TestCityBlock:
    """The L1 block is plain numpy; scipy's ``cdist`` stays the referee."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_l1_block_equals_cdist(self, data):
        width = data.draw(st.integers(1, 6))
        counts = [
            data.draw(hnp.arrays(
                np.int64, (data.draw(st.integers(1, 7)), width),
                elements=st.integers(0, 5),
            ))
            for _ in range(2)
        ]
        p1, p2 = map(_profile_of_counts, counts)
        cost = _star_cost_matrix(p1, p2)
        degree_gap = np.abs(p1.degrees[:, None] - p2.degrees[None, :])
        expected = cdist(*counts, metric="cityblock")
        assert np.array_equal(2.0 * cost - degree_gap, expected)


class TestMetricAxioms:
    def test_axioms_on_fixed_set(self):
        graphs = [
            path_graph(["C", "O"]),
            cycle_graph(["C", "C", "C"]),
            star_graph("N", ["C", "O", "O"]),
            path_graph(["C", "C", "C", "O"]),
            LabeledGraph(["S"]),
            LabeledGraph(["C", "N"], [(0, 1, "=")]),
        ]
        assert check_metric_axioms(graphs, StarDistance()) == []

    @settings(max_examples=60, deadline=None)
    @given(small_graph(), small_graph(), small_graph())
    def test_triangle_inequality(self, a, b, c):
        sd = StarDistance()
        assert sd(a, c) <= sd(a, b) + sd(b, c) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(small_graph(), small_graph())
    def test_symmetry_property(self, a, b):
        sd = StarDistance()
        assert sd(a, b) == pytest.approx(sd(b, a))

    @settings(max_examples=40, deadline=None)
    @given(small_graph())
    def test_identity_property(self, g):
        assert StarDistance()(g, g) == 0.0


class TestGEDSandwich:
    @settings(max_examples=30, deadline=None)
    @given(small_graph(max_nodes=5), small_graph(max_nodes=5))
    def test_lower_and_upper_bound_exact_ged(self, a, b):
        exact = ExactGED()(a, b)
        assert star_ged_lower_bound(a, b) <= exact + 1e-9
        assert bipartite_upper_bound(a, b) >= exact - 1e-9

    def test_bipartite_equals_exact_for_identical(self):
        g = cycle_graph(["C", "N", "O"])
        assert BipartiteGED()(g, g) == 0.0

    def test_bipartite_empty_source(self):
        b = path_graph(["C", "N"])
        assert BipartiteGED()(LabeledGraph([]), b) == 3.0

    def test_assignment_value_positive_for_different(self):
        a = path_graph(["C", "C"])
        b = path_graph(["N", "N"])
        assert star_assignment_value(a, b) > 0.0
