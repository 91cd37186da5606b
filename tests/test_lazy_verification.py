"""Bound-driven lazy verification: same answers, fewer exact distances.

The tree frontier verifies a leaf's candidate window only as far as the
greedy round needs (``TreeFrontier.resolve``) and settles the Theorem 6–8
update walk from the vantage sandwich wherever both of its ends agree.
This file pins what that must not change and what it must buy:

* ids / gains / order / coverage bit-identical to ``baseline_greedy`` in
  every deployment shape, with and without a structural-stage cascade, and
  — at ε > 0, where the reference is the per-pair cascade rule — to the
  eager resolver below;
* soundness: every working bound (initial, decremented, partial) is ≥ the
  true residual gain at every pull, and a resumed partial leaf ends at the
  same exact gain as a from-scratch resolution;
* the canonical tie-break survives an early exit of the smaller id;
* from cold caches the lazy path never pays more exact distances than the
  eager one, and stays under a committed budget at the e2e smoke scale;
* the sandwich-first update walk takes the decisions of the walk that
  pays one scalar distance per visited node.

``EagerFrontier`` and ``scalar_update_walk`` are the pre-lazy code paths,
kept here — and only here — as referees.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from tests.conftest import random_database
from repro import baseline_greedy, quartile_relevance
from repro.bitset import BitsetDelta, kernel as bitset_kernel
from repro.cascade import CascadeConfig
from repro.core.results import QueryStats
from repro.datasets import GENERATORS
from repro.engine import DistanceEngine
from repro.ged import StarDistance
from repro.index import nbindex as nbindex_module
from repro.index import save_index
from repro.index.frontier import TreeFrontier, TreeRoundSearch
from repro.index.nbindex import NBIndex
from repro.index.nbtree import NBTree
from repro.index.pivec import ThresholdLadder
from repro.index.vantage import VantageEmbedding
from repro.metricspace import vector_database
from repro.replica import ReplicatedIndex
from repro.shard import ShardedIndex, build_shards

_EPS = 1e-9
_NEG_INF = float("-inf")
LADDER = ThresholdLadder([2.0, 4.0, 6.0, 9.0])
BUILD = dict(num_vantage_points=4, branching=4, thresholds=LADDER)
FULL_CASCADE = CascadeConfig(stages=("label_size", "assignment", "vantage"))


# ---------------------------------------------------------------------------
# Referees: the eager resolver and the scalar-distance update walk
# ---------------------------------------------------------------------------
class EagerFrontier(TreeFrontier):
    """The pre-lazy home path: the moment a leaf is popped, verify its
    whole Chebyshev window over *all* relevant members in one batch."""

    def resolve(self, gid, min_useful, tie_gid):
        cached = self._nbhd.get(gid)
        if cached is not None:
            return cached
        state, index = self.state, self.index
        local = state.g2l[gid]
        window = index.embedding.candidates(
            local, self._gen_theta + _EPS, state.relevant_local
        )
        others = window[window != local]
        self.stats.candidates_generated += int(window.size)
        self.stats.candidate_verifications += int(others.size)
        mask = index.engine.within(
            local, others, self.theta, cascade=self.cascade, prefiltered=True
        )
        members = others[mask].tolist()
        if others.size < window.size:
            members.append(local)
        result = self.universe.encode_ids(np.asarray(
            [state.global_ids[c] for c in members], dtype=np.int64
        ))
        self._nbhd[gid] = result
        self.stats.exact_neighborhoods += 1
        return result


def scalar_update_walk(frontier, bounds, selected, newly, covered, distance):
    """The pre-sandwich update: one exact centroid distance per visited
    node, applied to ``bounds``; returns (pruned subtrees, batch
    decrements)."""
    state, theta = frontier.state, frontier.theta
    pruned = batched = 0
    stack = [frontier.index.tree.root]
    while stack:
        node = stack.pop()
        if bounds[node.node_id] == _NEG_INF:
            continue
        cd = float(distance(selected, state.global_ids[node.centroid]))
        if cd - node.radius > 2.0 * theta + _EPS:
            pruned += 1
        elif node.is_leaf:
            gid = state.global_ids[node.graph_index]
            cached = frontier._nbhd.get(gid)
            position = frontier.universe.position(gid)
            if cached is not None:
                bounds[node.node_id] = float(
                    bitset_kernel.uncovered_count(cached, covered)
                )
            elif cd <= theta + _EPS and newly.test(position):
                bounds[node.node_id] = max(0.0, bounds[node.node_id] - 1.0)
        elif (
            node.diameter <= theta + _EPS
            and cd + node.radius <= theta + _EPS
        ):
            decrement = newly.intersection_count(state.node_bits[node.node_id])
            if decrement:
                batched += 1
                bounds[node.node_id] = max(
                    0.0, bounds[node.node_id] - float(decrement)
                )
        else:
            stack.extend(node.children)
    return pruned, batched


def same_answer(got, want):
    assert got.answer == want.answer
    assert got.gains == want.gains
    assert got.covered == want.covered


def cold(index):
    """Drop every in-process pair cache behind ``index``."""
    for engine in (
        getattr(index, "engine", None),
        *(shard.engine for shard in getattr(index, "shards", ())),
        *(() if getattr(index, "base", None) is None else (index.base.engine,)),
    ):
        if engine is not None:
            engine._cache.clear()


# ---------------------------------------------------------------------------
# Bit-identity to the paper's greedy, every deployment shape
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def shapes(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lazy-shapes")
    database = random_database(seed=17, size=72)
    distance = StarDistance()
    single = NBIndex.build(database, distance, seed=0, **BUILD)
    save_index(single, tmp / "index.npz")
    manifests = {
        s: build_shards(
            database, distance, num_shards=s, out_dir=tmp / f"s{s}", seed=0,
            **BUILD,
        )
        for s in (1, 2, 4)
    }
    mutable_db = database.subset(range(len(database)))
    mutable = repro.open_index(
        tmp / "index.npz", mutable_db, distance, mutable=True
    )
    donors = random_database(seed=18, size=4)
    for i in range(len(donors)):
        mutable.insert(donors[i], database.features[i])
    mutable.delete(5)
    replicated = ReplicatedIndex.open(
        manifests[2], database, distance, replicas=2
    )
    yield {
        "nbindex": single,
        "sharded-1": ShardedIndex.load(manifests[1], database, distance),
        "sharded-4": ShardedIndex.load(manifests[4], database, distance),
        "mutable": mutable,
        "replicated-2x2": replicated,
    }
    mutable.close()
    replicated.close()


@settings(max_examples=20, deadline=None)
@given(
    quantile=st.sampled_from([0.1, 0.3, 0.6]),
    theta=st.sampled_from([2.0, 3.0, 4.0, 6.0, 8.5]),
    k=st.integers(1, 12),
    cascade=st.sampled_from([None, FULL_CASCADE]),
    warm=st.booleans(),
)
def test_every_shape_matches_baseline_greedy(
    shapes, quantile, theta, k, cascade, warm,
):
    for name, index in shapes.items():
        database = index.database
        q = quartile_relevance(database, quantile=quantile)
        want = baseline_greedy(database, StarDistance(), q, theta, k)
        if not warm:
            cold(index)
        kwargs = {} if cascade is None else {"cascade": cascade}
        got = index.query(q, theta, k, **kwargs)
        assert got.answer == want.answer, name
        assert got.gains == want.gains, name
        assert got.covered == want.covered, name


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_lazy_equals_eager_and_never_pays_more(data):
    """Same index, cold caches, lazy vs eager: identical answers at any ε
    and cascade (the per-pair rule is the cascade's either way), and the
    lazy path never evaluates more exact distances."""
    seed = data.draw(st.integers(0, 2**16), label="seed")
    database = random_database(
        seed=seed, size=data.draw(st.integers(16, 64), label="size")
    )
    index = NBIndex.build(
        database, StarDistance(), num_vantage_points=4, branching=3, seed=seed
    )
    q = quartile_relevance(
        database, quantile=data.draw(st.sampled_from([0.1, 0.4, 0.7]))
    )
    rung = data.draw(st.integers(0, len(index.ladder) - 1), label="rung")
    theta = float(index.ladder[rung]) * data.draw(st.sampled_from([0.7, 1.0]))
    k = data.draw(st.integers(1, 10), label="k")
    kwargs = {
        "epsilon": data.draw(st.sampled_from([0.0, 0.1, 0.3]), label="eps"),
    }
    if data.draw(st.booleans(), label="structural"):
        kwargs["cascade"] = FULL_CASCADE.stages

    cold(index)
    lazy = index.query(q, theta, k, **kwargs)
    cold(index)
    with mock.patch.object(nbindex_module, "TreeFrontier", EagerFrontier):
        eager = index.query(q, theta, k, **kwargs)
    same_answer(lazy, eager)
    assert lazy.stats.distance_calls <= eager.stats.distance_calls
    assert lazy.stats.candidate_verifications <= eager.stats.candidate_verifications
    assert lazy.stats.pruned_subtrees == eager.stats.pruned_subtrees
    assert lazy.stats.batch_decrements == eager.stats.batch_decrements
    if kwargs["epsilon"] == 0.0:
        same_answer(lazy, baseline_greedy(database, StarDistance(), q, theta, k))


# ---------------------------------------------------------------------------
# Soundness of every working bound, at every pull
# ---------------------------------------------------------------------------
class _CheckedSearch(TreeRoundSearch):
    """Round cursor that audits the frontier around every pull."""

    audit = None  # set per test: (frontier, covered) -> None
    resumed: list = []

    def next(self, min_useful, tie_gid):
        frontier = self.frontier
        type(self).audit(frontier, self.covered)
        was_partial = set(frontier._partial)
        candidate = super().next(min_useful, tie_gid)
        type(self).audit(frontier, self.covered)
        if candidate is not None and candidate[0] in was_partial:
            type(self).resumed.append(candidate[0])
        return candidate


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bounds_dominate_true_residual_gains_at_every_pull(data):
    seed = data.draw(st.integers(0, 2**16), label="seed")
    database = random_database(
        seed=seed, size=data.draw(st.integers(16, 56), label="size")
    )
    index = NBIndex.build(
        database, StarDistance(), num_vantage_points=3, branching=3, seed=seed
    )
    q = quartile_relevance(
        database, quantile=data.draw(st.sampled_from([0.1, 0.4]))
    )
    rung = data.draw(st.integers(0, len(index.ladder) - 1), label="rung")
    theta = float(index.ladder[rung])
    k = data.draw(st.integers(2, 10), label="k")
    _audit_query(index, q, theta, k)


def _audit_query(index, q, theta, k):
    """Run one query with every pull audited; returns (result, gids whose
    exact resolution resumed an earlier partial state)."""
    database = index.database
    star = StarDistance()
    relevant = [int(g) for g in database.relevant_indices(q)]
    true_nbhd = {
        g: {
            h for h in relevant
            if star(database[g], database[h]) <= theta + _EPS
        }
        for g in relevant
    }
    _CheckedSearch.resumed = []

    def audit(frontier, covered):
        done = set(frontier.universe.decode_ids(covered))
        residual = {g: len(true_nbhd[g] - done) for g in relevant}
        for node in frontier.index.tree.nodes:
            bound = frontier.bounds[node.node_id]
            if bound == _NEG_INF:
                continue  # selected, or no relevant member below
            alive = [
                g for g in frontier.state.relevant_in(node)
                if frontier.bounds[
                    frontier.index._leaf_of[g].node_id
                ] != _NEG_INF
            ]
            assert all(bound >= residual[g] for g in alive), node
        for gid, nbhd in frontier._nbhd.items():
            # A resolved neighborhood is exact over everything uncovered.
            assert set(frontier.universe.decode_ids(nbhd)) - done == (
                true_nbhd[gid] - done
            )
        for gid, (hits, unverified) in frontier._partial.items():
            members = frontier.state.relevant_global
            assert {int(g) for g in members[hits]} <= true_nbhd[gid]
            assert true_nbhd[gid] - done <= {
                int(g) for g in members[np.concatenate([hits, unverified])]
            }

    _CheckedSearch.audit = staticmethod(audit)
    cold(index)
    with mock.patch.object(TreeFrontier, "round_search", _CheckedSearch):
        result = index.query(q, theta, k)
    same_answer(result, baseline_greedy(database, star, q, theta, k))
    return result, list(_CheckedSearch.resumed)


def test_a_resumed_partial_leaf_reaches_its_exact_gain():
    """Deterministic instance on which leaves exit early, get popped again
    in a later round and are then resolved to completion — with the audit
    above watching every step (exact residual neighborhoods, bounds)."""
    database = GENERATORS["dud"](num_graphs=300, seed=11)
    index = NBIndex.build(
        database, StarDistance(), seed=11, num_vantage_points=8, branching=4
    )
    q = quartile_relevance(database, dims=[0], quantile=0.8)
    result, resumed = _audit_query(index, q, 8.0, 10)
    assert resumed, "no partial leaf was ever resumed to completion"
    assert result.stats.verifications_skipped > 0


# ---------------------------------------------------------------------------
# Tie-break: the smaller id wins although it was exited early before
# ---------------------------------------------------------------------------
def test_early_exited_smaller_id_still_wins_the_tie(monkeypatch):
    """Points on two circles around the single vantage point at the
    origin: equal vantage coordinates make every Chebyshev window the
    whole circle (loose π̂), while true neighborhoods are tight clumps.

    Round 1 selects the 6-clump on the inner circle; the outer-circle
    leaves (π̂ = 8 > 6) are popped against that incumbent and exit early.
    Round 2 is a four-way tie at gain 2 between the two outer pairs; the
    smallest id — an early-exited leaf — must win it.
    """
    def on_circle(radius, degrees):
        angle = np.deg2rad(degrees)
        return [radius * np.cos(angle), radius * np.sin(angle)]

    theta = 1.0
    points = [[0.0, 0.0]]                                            # 0: vantage
    points += [on_circle(20.0, a) for a in (0.0, 0.5, 100.0, 100.5)]  # 1-4: pairs
    points += [on_circle(20.0, a) for a in (40.0, 160.0, 220.0, 300.0)]  # 5-8
    points += [on_circle(10.0, 1.0 * i) for i in range(6)]          # 9-14: clump
    points += [on_circle(10.0, a) for a in (90.0, 150.0, 210.0, 300.0)]  # 15-18
    database, distance = vector_database(np.asarray(points))
    engine = DistanceEngine(distance, graphs=database.graphs)
    embedding = VantageEmbedding(database.graphs, [0], engine, engine=engine)
    engine.attach_embedding(embedding)
    tree = NBTree(
        database.graphs, engine, embedding, branching=3,
        rng=np.random.default_rng(0), engine=engine,
    )
    index = NBIndex(
        database, engine, embedding=embedding, tree=tree,
        ladder=ThresholdLadder([theta]), counting=engine,
    )

    def relevant(row):
        return bool(np.hypot(*row) > 1.0)  # everything but the vantage point

    exited = []
    resolve = TreeFrontier.resolve

    def spying(self, gid, min_useful, tie_gid):
        result = resolve(self, gid, min_useful, tie_gid)
        if result is None:
            exited.append((len(self._nbhd), gid))
        return result

    monkeypatch.setattr(TreeFrontier, "resolve", spying)
    cold(index)
    got = index.query(relevant, theta, 3)
    want = baseline_greedy(database, distance, relevant, theta, 3)
    same_answer(got, want)
    assert got.answer[:2] == [9, 1] and got.gains[:2] == [6, 2]
    assert 1 in {gid for _, gid in exited}, exited


# ---------------------------------------------------------------------------
# Update walk: sandwich-first == one scalar distance per visited node
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_update_walk_matches_the_scalar_distance_walk(data):
    seed = data.draw(st.integers(0, 2**16), label="seed")
    database = random_database(
        seed=seed, size=data.draw(st.integers(16, 64), label="size")
    )
    index = NBIndex.build(
        database, StarDistance(), num_vantage_points=4, branching=3, seed=seed
    )
    q = quartile_relevance(
        database, quantile=data.draw(st.sampled_from([0.1, 0.4, 0.7]))
    )
    rung = data.draw(st.integers(0, len(index.ladder) - 1), label="rung")
    theta = float(index.ladder[rung]) * data.draw(st.sampled_from([0.6, 1.0]))
    star = StarDistance()
    walks = []
    apply_update = TreeFrontier.apply_update

    def refereed(self, selected, newly, covered):
        expected = self.bounds.copy()
        pruned, batched = scalar_update_walk(
            self, expected, selected, newly, covered,
            lambda a, b: star(database[a], database[b]),
        )
        before = (self.stats.pruned_subtrees, self.stats.batch_decrements)
        apply_update(self, selected, newly, covered)
        assert np.array_equal(self.bounds, expected)
        assert self.stats.pruned_subtrees - before[0] == pruned
        assert self.stats.batch_decrements - before[1] == batched
        walks.append(selected)

    k = data.draw(st.integers(2, 10), label="k")
    with mock.patch.object(TreeFrontier, "apply_update", refereed):
        result = index.query(q, theta, k)
    assert len(walks) == sum(1 for gain in result.gains if gain)


def test_the_sandwich_spares_centroid_distances():
    """Nodes the sandwich settles are never evaluated, and the rest go to
    the engine one sibling group at a time."""
    database = GENERATORS["dud"](num_graphs=300, seed=11)
    index = NBIndex.build(
        database, StarDistance(), seed=11, num_vantage_points=8, branching=4
    )
    q = quartile_relevance(database, dims=[0], quantile=0.8)
    batches = []
    state = index._tree_state(index.session(q))
    frontier = TreeFrontier(
        state, 8.0, index.ladder.index_for(8.0), QueryStats(),
        distances=lambda a, bs: batches.append(bs) or index._pair_distances(a, bs),
    )
    visited = []
    verdict = TreeFrontier._verdict

    def counting(self, node, cd, newly):
        visited.append(node.node_id)
        return verdict(self, node, cd, newly)

    frontier._verdict = counting.__get__(frontier)
    covered = state.universe.empty()
    frontier.begin_round(covered)
    gid, _, nbhd = frontier.open_round(covered).next(_NEG_INF, None)
    frontier.select(gid)
    bitset_kernel.union_into(covered, nbhd)
    frontier.apply_update(
        gid, BitsetDelta.from_words(nbhd, state.universe.size), covered
    )
    asked = [centroid for batch in batches for centroid in batch]
    assert 0 < len(asked) < len(set(visited))
    assert len(batches) < len(asked)


# ---------------------------------------------------------------------------
# The gain must not rot: a timing-free budget at the e2e smoke scale
# ---------------------------------------------------------------------------
#: Mean exact distance calls per cold query on the smoke mix below (the
#: n = 300 ``dud_inproc`` shape of ``benchmarks/e2e``: seed 11, 4 relevance
#: functions at the top 20 %, 8 vantage points, b = 4).  Measured 479.25;
#: the eager path this replaced paid 749.0.
SMOKE_COLD_CALLS_BUDGET = 540


def test_smoke_scale_cold_queries_stay_under_budget(tmp_path):
    seed = 11
    database = GENERATORS["dud"](num_graphs=300, seed=seed)
    built = NBIndex.build(
        database, StarDistance(), seed=seed, num_vantage_points=8, branching=4
    )
    save_index(built, tmp_path / "index.npz")
    index = repro.open_index(tmp_path / "index.npz", database)  # cold cache
    theta_k = ((8.0, 10), (10.0, 10), (8.0, 20), (12.0, 5))
    order = np.random.default_rng([seed, 1]).permutation(
        database.num_features
    )[:4]
    calls, resolved, relevant = [], 0, 0
    for position, dim in enumerate(order):
        theta, k = theta_k[position % len(theta_k)]
        q = quartile_relevance(database, dims=[int(dim)], quantile=0.8)
        result = index.session(q).query(theta, k)
        same_answer(
            result, baseline_greedy(database, StarDistance(), q, theta, k)
        )
        calls.append(result.stats.distance_calls)
        resolved += result.stats.exact_neighborhoods
        relevant += result.num_relevant
    assert np.mean(calls) <= SMOKE_COLD_CALLS_BUDGET, calls
    assert resolved / relevant < 1.0
