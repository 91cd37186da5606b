"""Bound-driven lazy verification: same answers, fewer exact distances.

The index frontier verifies a member's candidate window only as far as
the greedy round needs (``IndexFrontier.resolve``).  This file pins what that
must not change and what it must buy:

* ids / gains / order / coverage bit-identical to ``baseline_greedy`` in
  every deployment shape, and to the eager resolver below;
* soundness: every working bound (initial, resolved, partial) is ≥ the
  true residual gain at every pull — stale bounds included, since no
  update step tightens them after a selection — and a resumed partial
  member ends at the same exact gain as a from-scratch resolution;
* the canonical tie-break survives an early exit of the smaller id;
* from cold caches the lazy path never pays more exact distances than the
  eager one, and stays under a committed budget at the e2e smoke scale.

The second half pins the same for graphs that live *elsewhere*: a foreign
neighborhood is one lazily verified window per frontier, driven by the
coordinator's per-frontier deficit (``repro.index.coordinator``).  A
``ShardedIndex`` queries one frontier over its frame (so does each
replica worker), so the sharded shapes there are a bundle's per-shard
frontiers (``tests.coordinated.CoordinatedBundle``) and the mutable base
beside its memtable — the loop production runs: every sharded shape against
``baseline_greedy``, lazy against the whole-window
``EagerShardFrontier`` (same answers; never more work summed over a pinned
sample, within a slack per instance), every reported foreign bound against
the truth, the
tie-break across a foreign early exit, a replicated query whose pinned
worker dies mid-query, and budgets at the e2e smoke scale.

``EagerFrontier`` and ``EagerShardFrontier`` are the pre-lazy code paths,
kept here — and only here — as referees.
"""

from __future__ import annotations

import contextlib
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from tests.conftest import random_database, rungs
from repro import baseline_greedy, obs, quartile_relevance
from repro.datasets import GENERATORS
from repro.delta import mutable as mutable_module
from repro.engine import DistanceEngine
from repro.ged import StarDistance
from repro.ged.metric import SLACK
from repro.index import nbindex as nbindex_module
from repro.index import save_index
from repro.index.frontier import FlatRoundSearch, IndexFrontier
from repro.index.nbindex import NBIndex
from repro.index.pivec import ThresholdLadder
from repro.index.vantage import VantageEmbedding
from repro.metricspace import vector_database
from repro.replica import ReplicatedIndex
from repro.replica.remote import RemoteFrontier
from repro.shard import ShardedIndex, build_shards
from repro.shard.frontier import ShardFrontier
from tests import coordinated
from tests.coordinated import CoordinatedBundle, cold

_NEG_INF = float("-inf")
BUILD = dict(num_vantage_points=4)


# ---------------------------------------------------------------------------
# Referees: the eager resolvers
# ---------------------------------------------------------------------------
class EagerFrontier(IndexFrontier):
    """The pre-lazy home path: the moment a member is visited, verify its
    whole Chebyshev window over *all* relevant members in one batch."""

    def resolve(self, gid, min_useful, tie_gid):
        cached = self._nbhd.get(gid)
        if cached is not None:
            return cached
        state, index = self.state, self.index
        window = index.embedding.candidates(
            gid, self.theta + SLACK, state.relevant_global
        )
        others = window[window != gid]
        self.stats.candidates_generated += int(window.size)
        self.stats.candidate_verifications += int(others.size)
        # The window above applied only the lower bound: the filter runs
        # its whole vantage sandwich over it.
        mask = index.engine.within(
            gid, others, self.theta, runtime=self.runtime
        )
        members = others[mask].tolist()
        if others.size < window.size:
            members.append(gid)
        result = self.universe.encode_ids(np.asarray(members, dtype=np.int64))
        self._nbhd[gid] = result
        self.stats.exact_neighborhoods += 1
        return result


class EagerShardFrontier(ShardFrontier):
    """The pre-lazy foreign path: whatever the coordinator's deficit says,
    a stranger's window is verified whole the moment it is asked for."""

    def neighborhood_of(self, gid, min_useful=_NEG_INF, tie_gid=None):
        return super().neighborhood_of(gid)


@contextlib.contextmanager
def shard_frontier(cls):
    """Open every in-process shard frontier as ``cls``."""
    with mock.patch.object(coordinated, "ShardFrontier", cls), \
            mock.patch.object(mutable_module, "ShardFrontier", cls):
        yield


def dud_smoke_mix(database, seed):
    """The dud smoke mix of ``benchmarks/e2e``: ``(q, θ, k)`` triples."""
    theta_k = ((8.0, 10), (10.0, 10), (8.0, 20), (12.0, 5))
    order = np.random.default_rng([seed, 1]).permutation(
        database.num_features
    )[:4]
    return [
        (quartile_relevance(database, dims=[int(dim)], quantile=0.8),
         *theta_k[position % len(theta_k)])
        for position, dim in enumerate(order)
    ]


def same_answer(got, want):
    assert got.answer == want.answer
    assert got.gains == want.gains
    assert got.covered == want.covered


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
    warm=st.booleans(),
)
def test_every_shape_matches_baseline_greedy(shapes, quantile, theta, k, warm):
    for name, index in shapes.items():
        database = index.database
        q = quartile_relevance(database, quantile=quantile)
        want = baseline_greedy(database, StarDistance(), q, theta, k)
        if not warm:
            cold(index)
        got = index.query(q, theta, k)
        assert got.answer == want.answer, name
        assert got.gains == want.gains, name
        assert got.covered == want.covered, name


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_lazy_equals_eager_and_never_pays_more(data):
    """Same index, cold caches, lazy vs eager: identical answers (the
    greedy's), and the lazy path never evaluates more exact distances."""
    seed = data.draw(st.integers(0, 2**16), label="seed")
    database = random_database(
        seed=seed, size=data.draw(st.integers(16, 64), label="size")
    )
    index = NBIndex.build(
        database, StarDistance(), num_vantage_points=4, seed=seed
    )
    q = quartile_relevance(
        database, quantile=data.draw(st.sampled_from([0.1, 0.4, 0.7]))
    )
    thetas = rungs(database.graphs, StarDistance(), seed=seed)
    rung = data.draw(st.integers(0, len(thetas) - 1), label="rung")
    theta = thetas[rung] * data.draw(st.sampled_from([0.7, 1.0]))
    k = data.draw(st.integers(1, 10), label="k")

    cold(index)
    lazy = index.query(q, theta, k)
    cold(index)
    with mock.patch.object(nbindex_module, "IndexFrontier", EagerFrontier):
        eager = index.query(q, theta, k)
    same_answer(lazy, eager)
    assert lazy.stats.distance_calls <= eager.stats.distance_calls
    assert lazy.stats.candidate_verifications <= eager.stats.candidate_verifications
    same_answer(lazy, baseline_greedy(database, StarDistance(), q, theta, k))


# ---------------------------------------------------------------------------
# Soundness of every working bound, at every pull
# ---------------------------------------------------------------------------
class _CheckedSearch(FlatRoundSearch):
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
        database, StarDistance(), num_vantage_points=3, seed=seed
    )
    q = quartile_relevance(
        database, quantile=data.draw(st.sampled_from([0.1, 0.4]))
    )
    thetas = rungs(database.graphs, StarDistance(), seed=seed)
    rung = data.draw(st.integers(0, len(thetas) - 1), label="rung")
    theta = thetas[rung]
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
            if star(database[g], database[h]) <= theta + SLACK
        }
        for g in relevant
    }
    _CheckedSearch.resumed = []

    def audit(frontier, covered):
        done = set(frontier.universe.decode_ids(covered))
        residual = {g: len(true_nbhd[g] - done) for g in relevant}
        members = frontier.state.relevant_list
        assert members == relevant
        for gid, bound in zip(members, frontier.bounds):
            if bound != _NEG_INF:  # else selected
                assert bound >= residual[gid], gid
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
    with mock.patch.object(IndexFrontier, "round_search", _CheckedSearch):
        result = index.query(q, theta, k)
    same_answer(result, baseline_greedy(database, star, q, theta, k))
    return result, list(_CheckedSearch.resumed)


def test_a_resumed_partial_leaf_reaches_its_exact_gain():
    """Deterministic instance on which members exit early, get visited
    again in a later round and are then resolved to completion — with the
    audit above watching every step (exact residual neighborhoods,
    bounds)."""
    database = GENERATORS["dud"](num_graphs=300, seed=11)
    index = NBIndex.build(
        database, StarDistance(), seed=11, num_vantage_points=8
    )
    q = quartile_relevance(database, dims=[0], quantile=0.8)
    result, resumed = _audit_query(index, q, 8.0, 10)
    assert resumed, "no partial member was ever resumed to completion"
    assert result.stats.verifications_skipped > 0


# ---------------------------------------------------------------------------
# Tie-break: the smaller id wins although it was exited early before
# ---------------------------------------------------------------------------
def test_early_exited_smaller_id_still_wins_the_tie(monkeypatch):
    """Points on two circles around the single vantage point at the
    origin: equal vantage coordinates make every Chebyshev window the
    whole circle (loose π̂), while true neighborhoods are tight clumps.

    Round 1 selects the 6-clump on the inner circle; the outer-circle
    members (π̂ = 8 > 6) are visited against that incumbent and exit
    early.  Round 2 is a four-way tie at gain 2 between the two outer
    pairs; the smallest id — an early-exited member — must win it.
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
    embedding = VantageEmbedding(database.graphs, [0], engine)
    index = NBIndex(database, engine, embedding=embedding)

    def relevant(row):
        return bool(np.hypot(*row) > 1.0)  # everything but the vantage point

    exited = []
    resolve = IndexFrontier.resolve

    def spying(self, gid, min_useful, tie_gid):
        result = resolve(self, gid, min_useful, tie_gid)
        if result is None:
            exited.append((len(self._nbhd), gid))
        return result

    monkeypatch.setattr(IndexFrontier, "resolve", spying)
    cold(index)
    got = index.query(relevant, theta, 3)
    want = baseline_greedy(database, distance, relevant, theta, 3)
    same_answer(got, want)
    assert got.answer[:2] == [9, 1] and got.gains[:2] == [6, 2]
    assert 1 in {gid for _, gid in exited}, exited


# ---------------------------------------------------------------------------
# The gain must not rot: a timing-free budget at the e2e smoke scale
# ---------------------------------------------------------------------------
#: Mean exact distance calls per cold query on the smoke mix below (the
#: n = 300 ``dud_inproc`` shape of ``benchmarks/e2e``: seed 11, 4 relevance
#: functions at the top 20 %, 8 vantage points, b = 4).  Measured 339.75
#: (433.5 with the Theorem 6–8 update walk, 479.25 while its leaves paid
#: centroid distances); the eager path paid 749.0.
SMOKE_COLD_CALLS_BUDGET = 376


def test_smoke_scale_cold_queries_stay_under_budget(tmp_path):
    seed = 11
    database = GENERATORS["dud"](num_graphs=300, seed=seed)
    built = NBIndex.build(
        database, StarDistance(), seed=seed, num_vantage_points=8
    )
    save_index(built, tmp_path / "index.npz")
    index = repro.open_index(tmp_path / "index.npz", database)  # cold cache
    calls, resolved, relevant = [], 0, 0
    for q, theta, k in dud_smoke_mix(database, seed):
        result = index.session(q).query(theta, k)
        same_answer(
            result, baseline_greedy(database, StarDistance(), q, theta, k)
        )
        calls.append(result.stats.distance_calls)
        resolved += result.stats.exact_neighborhoods
        relevant += result.num_relevant
    assert np.mean(calls) <= SMOKE_COLD_CALLS_BUDGET, calls
    assert resolved / relevant < 1.0


# ===========================================================================
# One deficit across shards: foreign windows are verified lazily too
# ===========================================================================
@pytest.fixture(scope="module")
def sharded_shapes(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lazy-sharded")
    database = random_database(seed=23, size=72)
    distance = StarDistance()
    manifests = {
        (s, partitioner): build_shards(
            database, distance, num_shards=s, partitioner=partitioner,
            out_dir=tmp / f"s{s}-{partitioner}", seed=0, **BUILD,
        )
        for s in (1, 2, 4) for partitioner in ("hash", "clustering")
    }
    built = {
        f"sharded-{s}-{partitioner}": CoordinatedBundle.load(
            manifest, database, distance
        )
        for (s, partitioner), manifest in manifests.items()
    }
    # Base + memtable: two indexed shards plus un-indexed inserts.
    mutable_db = database.subset(range(len(database)))
    mutable = repro.open_index(
        manifests[2, "clustering"], mutable_db, distance, mutable=True
    )
    donors = random_database(seed=24, size=5)
    for i in range(len(donors)):
        mutable.insert(donors[i], database.features[i])
    mutable.delete(7)
    built["mutable-2"] = mutable
    built["replicated-2x2"] = ReplicatedIndex.open(
        manifests[2, "hash"], database, distance, replicas=2
    )
    yield built
    mutable.close()
    built["replicated-2x2"].close()


@settings(max_examples=15, deadline=None)
@given(
    quantile=st.sampled_from([0.1, 0.3, 0.6]),
    theta=st.sampled_from([2.0, 3.0, 4.0, 6.0, 8.5]),
    k=st.integers(1, 12),
    warm=st.booleans(),
)
def test_every_sharded_shape_matches_its_reference(
    sharded_shapes, quantile, theta, k, warm,
):
    """Every sharded shape answers like the paper's greedy."""
    for name, index in sharded_shapes.items():
        database = index.database
        q = quartile_relevance(database, quantile=quantile)
        if not warm:
            cold(index)
        got = index.query(q, theta, k)
        want = baseline_greedy(database, StarDistance(), q, theta, k)
        assert got.answer == want.answer, name
        assert got.gains == want.gains, name
        assert got.covered == want.covered, name


def _one_ladder_outcome_per_survivor(coord):
    assert coord["pi_hat_refines"] == (
        coord["refine_prunes"] + coord["partial_scatters"]
        + coord["scatter_resolves"]
    ), coord


def lazy_and_eager_over_a_bundle(
    seed, size, quantile, shards, partitioner, rung, theta_scale, k,
):
    """One random bundle queried cold twice — lazy, then with every foreign
    window resolved whole — at ``theta_scale`` × rung ``rung`` of the
    database's :func:`~tests.conftest.rungs` (the top one if there are
    fewer); returns both stats after checking that the
    answers agree."""
    database = random_database(seed=seed, size=size)
    q = quartile_relevance(database, quantile=quantile)
    with tempfile.TemporaryDirectory() as tmp:
        index = CoordinatedBundle.build(
            database, StarDistance(), out_dir=tmp, seed=seed,
            num_shards=shards, partitioner=partitioner,
            num_vantage_points=4,
        )
        thetas = rungs(database.graphs, StarDistance(), seed=seed)
        theta = theta_scale * thetas[min(rung, len(thetas) - 1)]
        cold(index)
        lazy = index.query(q, theta, k)
        cold(index)
        with shard_frontier(EagerShardFrontier):
            eager = index.query(q, theta, k)
    same_answer(lazy, eager)
    _one_ladder_outcome_per_survivor(lazy.stats.coordinator)
    assert not eager.stats.coordinator["partial_scatters"]
    same_answer(lazy, baseline_greedy(database, StarDistance(), q, theta, k))
    return lazy.stats, eager.stats


def within_the_cross_frontier_slack(lazy, eager):
    """Across frontiers "never more" holds on the whole (next test), not
    per instance: a bound reported in place of an exact count can send a
    later round to a window the eager run never opens.  Of 1 900 random
    instances of this generator lazy paid more exact distances in 14 (by
    at most 10: 1 076 vs 1 066) and verified more candidates in 8 % (by at
    most 88: 1 108 vs 1 020, or 11 %: 479 vs 431) — anything past this
    slack is a regression, not that effect."""
    return (
        lazy.distance_calls <= 1.02 * eager.distance_calls + 16
        and lazy.candidate_verifications
        <= 1.2 * eager.candidate_verifications + 16
    )


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_lazy_foreign_windows_equal_eager_and_never_pay_more(data):
    lazy, eager = lazy_and_eager_over_a_bundle(
        seed=data.draw(st.integers(0, 2**16), label="seed"),
        size=data.draw(st.integers(24, 72), label="size"),
        quantile=data.draw(st.sampled_from([0.1, 0.4, 0.7])),
        shards=data.draw(st.sampled_from([2, 4]), label="shards"),
        partitioner=data.draw(st.sampled_from(["hash", "clustering"])),
        rung=data.draw(st.integers(0, 9), label="rung"),
        theta_scale=data.draw(st.sampled_from([0.7, 1.0])),
        k=data.draw(st.integers(1, 10), label="k"),
    )
    assert within_the_cross_frontier_slack(lazy, eager), (lazy, eager)


#: (seed, size, quantile, S, partitioner, rung, θ scale, k) —
#: the first rows are instances where lazy is *ahead* of eager on a
#: counter (calls lazy/eager, verifications lazy/eager as measured), the
#: rest were drawn once from ``default_rng(16)``.
PINNED_BUNDLES = [
    (37981, 45, 0.1, 4, "clustering", 0, 0.7, 4),   # 275/274, 292/278
    (61904, 57, 0.4, 2, "clustering", 0, 0.7, 7),   # 230/230, 196/178
    (259, 70, 0.1, 4, "clustering", 2, 0.7, 5),     # 1033/1038, 1108/1020
]


def test_lazy_foreign_windows_never_pay_more_on_the_whole():
    """The strict form of the cost claim, on a pinned sample: summed over
    the instances — those where lazy is individually ahead included — lazy
    pays no more exact distances and verifies no more candidates."""
    rng = np.random.default_rng(16)
    sample = list(PINNED_BUNDLES)
    while len(sample) < 60:
        sample.append((
            int(rng.integers(0, 2**16)), int(rng.integers(24, 73)),
            float(rng.choice([0.1, 0.4, 0.7])),
            int(rng.choice([2, 4])), str(rng.choice(["hash", "clustering"])),
            int(rng.integers(0, 10)), float(rng.choice([0.7, 1.0])),
            int(rng.integers(1, 11)),
        ))
    totals = np.zeros(4, dtype=np.int64)
    for instance in sample:
        lazy, eager = lazy_and_eager_over_a_bundle(*instance)
        assert within_the_cross_frontier_slack(lazy, eager), instance
        totals += (
            lazy.distance_calls, eager.distance_calls,
            lazy.candidate_verifications, eager.candidate_verifications,
        )
    assert totals[0] <= totals[1] and totals[2] <= totals[3], totals


# ---------------------------------------------------------------------------
# Soundness of every bound a frontier reports about a stranger
# ---------------------------------------------------------------------------
class AuditedShardFrontier(ShardFrontier):
    """Checks each foreign answer against brute force, at every visit."""

    true_nbhd: dict = {}
    bounded: set = set()    # (frontier, gid) left partially *verified*
    resumed: list = []      # ... and later resolved to completion

    def _residual(self, gid):
        done = set(self.universe.decode_ids(self._covered))
        members = {int(g) for g in self.relevant_global}
        return (type(self).true_nbhd[gid] & members) - done, done

    def pi_hat_uncovered(self, gid):
        bound = super().pi_hat_uncovered(gid)
        assert bound >= len(self._residual(gid)[0])
        return bound

    def neighborhood_of(self, gid, min_useful=_NEG_INF, tie_gid=None):
        if gid in self.state._rank:
            return super().neighborhood_of(gid, min_useful, tie_gid)
        verified = self.stats.candidate_verifications
        part = super().neighborhood_of(gid, min_useful, tie_gid)
        residual, done = self._residual(gid)
        if isinstance(part, np.ndarray):
            assert set(self.universe.decode_ids(part)) - done == residual
            if (id(self), gid) in type(self).bounded:
                type(self).resumed.append(gid)
        else:
            # Proven out: the bound is sound and really is below the ask.
            assert len(residual) <= part <= min_useful
            if self.stats.candidate_verifications > verified:
                type(self).bounded.add((id(self), gid))
        return part


def _audited_query(index, q, theta, k):
    database = index.database
    star = StarDistance()
    relevant = [int(g) for g in database.relevant_indices(q)]
    AuditedShardFrontier.true_nbhd = {
        g: {
            h for h in relevant
            if star(database[g], database[h]) <= theta + SLACK
        }
        for g in relevant
    }
    AuditedShardFrontier.bounded = set()
    AuditedShardFrontier.resumed = []
    cold(index)
    with shard_frontier(AuditedShardFrontier):
        result = index.query(q, theta, k)
    same_answer(result, baseline_greedy(database, star, q, theta, k))
    _one_ladder_outcome_per_survivor(result.stats.coordinator)
    return result, list(AuditedShardFrontier.resumed)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_foreign_bounds_dominate_true_residual_counts_at_every_visit(data):
    seed = data.draw(st.integers(0, 2**16), label="seed")
    database = random_database(
        seed=seed, size=data.draw(st.integers(24, 64), label="size")
    )
    q = quartile_relevance(
        database, quantile=data.draw(st.sampled_from([0.1, 0.4]))
    )
    with tempfile.TemporaryDirectory() as tmp:
        index = CoordinatedBundle.build(
            database, StarDistance(), out_dir=tmp, seed=seed,
            num_shards=data.draw(st.sampled_from([2, 3, 4]), label="shards"),
            num_vantage_points=3,
        )
        thetas = rungs(database.graphs, StarDistance(), seed=seed)
        rung = data.draw(st.integers(0, len(thetas) - 1), label="rung")
        k = data.draw(st.integers(2, 10), label="k")
        _audited_query(index, q, thetas[rung], k)


@pytest.fixture(scope="module")
def dud_bundles(tmp_path_factory):
    """The n = 300 dud smoke instance as S = 2 and S = 4 bundles."""
    tmp = tmp_path_factory.mktemp("lazy-dud")
    database = GENERATORS["dud"](num_graphs=300, seed=11)
    manifests = {
        s: build_shards(
            database, StarDistance(), num_shards=s, out_dir=tmp / f"s{s}",
            seed=11, num_vantage_points=8,
        )
        for s in (2, 4)
    }
    return database, manifests


def test_a_resumed_foreign_window_ends_exact(dud_bundles):
    """Deterministic instance on which frontiers drop strangers
    mid-verification, see them again in a later round and then finish the
    window — audited at every step."""
    database, manifests = dud_bundles
    index = CoordinatedBundle.load(manifests[4], database, StarDistance())
    q = quartile_relevance(database, dims=[0], quantile=0.8)
    result, resumed = _audited_query(index, q, 8.0, 10)
    coord = result.stats.coordinator
    assert resumed, "no partially verified foreign window was ever finished"
    assert coord["partial_scatters"] > 0 and coord["memo_prunes"] > 0
    assert coord["scatter_resolves"] < result.num_relevant
    assert result.stats.verifications_skipped > 0


# ---------------------------------------------------------------------------
# Tie-break: the smaller id wins although a *foreign* frontier dropped it
# ---------------------------------------------------------------------------
def _hand_built_bundle(points, members_of):
    """Shard frontiers over vector points with chosen shard members, the
    bundle's frame the single vantage point 0."""
    database, distance = vector_database(np.asarray(points))
    index = NBIndex(
        database, distance,
        embedding=VantageEmbedding(database.graphs, [0], distance),
    )
    return database, distance, CoordinatedBundle(index, members_of)


def test_smaller_id_dropped_at_a_foreign_frontier_still_wins_the_tie(monkeypatch):
    """The bundle's one vantage point sits at the origin, so a Chebyshev
    window is a whole circle while true neighborhoods are tight.

    Shard A: a 6-clump plus singles on the inner circle, and graph 1 alone
    on the outer one.  Shard B: eight outer-circle graphs — the last of
    them graph 1's only neighbor — and a far-out pair.  Round 1 selects the
    clump; graph 1 (local gain 1, foreign window 8) is handed to shard B
    with a deficit of 5, which four misses settle: dropped, bound 4.  Round
    2 is a four-way tie at gain 2 between {1, its neighbor} and the far-out
    pair; the smallest id — the one a foreign frontier dropped — must win.
    """
    def on_circle(radius, degrees):
        angle = np.deg2rad(degrees)
        return [radius * np.cos(angle), radius * np.sin(angle)]

    theta = 1.0
    points = [[0.0, 0.0], on_circle(20.0, 0.0)]                 # 0: the vantage, 1
    points += [on_circle(10.0, 1.0 * i) for i in range(6)]          # 2-7: clump
    points += [on_circle(10.0, a) for a in range(60, 360, 50)]      # 8-13: singles
    shard_a = list(range(len(points)))
    points += [[0.0, 0.0]]                                          # 14: irrelevant
    points += [on_circle(20.0, a) for a in range(40, 360, 45)][:7]  # 15-21: far
    points += [on_circle(20.0, 0.5)]                                # 22: 1's neighbor
    points += [on_circle(35.0, 0.0), on_circle(35.0, 0.5)]          # 23, 24: pair
    points += [on_circle(50.0, a) for a in (0.0, 90.0, 180.0)]      # 25-27: singles
    shard_b = list(range(len(shard_a), len(points)))
    database, distance, bundle = _hand_built_bundle(
        points, [shard_a, shard_b]
    )

    def relevant(row):
        return bool(np.hypot(*row) > 1.0)  # everything but the vantage points

    dropped = []
    neighborhood_of = ShardFrontier.neighborhood_of

    def spying(self, gid, min_useful=_NEG_INF, tie_gid=None):
        part = neighborhood_of(self, gid, min_useful, tie_gid)
        if not isinstance(part, np.ndarray):
            dropped.append((gid, part))
        return part

    monkeypatch.setattr(ShardFrontier, "neighborhood_of", spying)
    got = bundle.query(relevant, theta, 3)
    want = baseline_greedy(database, distance, relevant, theta, 3)
    same_answer(got, want)
    assert got.answer[:2] == [2, 1] and got.gains[:2] == [6, 2]
    assert (1, 4) in dropped, dropped


# ---------------------------------------------------------------------------
# Failover after the pinned worker holds partial state
# ---------------------------------------------------------------------------
def test_pinned_worker_killed_mid_query_changes_no_answer_bit(
    dud_bundles, monkeypatch,
):
    """Partial and resolved windows live on the replica the query is
    pinned to.  Kill it once round 2 has begun — after round 1 left its
    windows there: the query re-runs on the sibling, which starts cold,
    and the answer is the in-process one."""
    database, manifests = dud_bundles
    q = quartile_relevance(database, dims=[0], quantile=0.8)
    want = ShardedIndex.load(manifests[2], database, StarDistance()).query(
        q, 8.0, 10
    )
    rounds, killed, reruns = [], [], []
    begin_round = RemoteFrontier.begin_round

    def killing(self, covered):
        begin_round(self, covered)
        if killed and self.handle is not killed[0]:
            reruns.append(self.handle)
        rounds.append(self.sid)
        if not killed and rounds.count(self.sid) == 2:
            self.handle.proc.kill()
            self.handle.proc.join(10)
            killed.append(self.handle)

    with ReplicatedIndex.open(
        manifests[2], database, StarDistance(), replicas=2
    ) as replicated:
        monkeypatch.setattr(RemoteFrontier, "begin_round", killing)
        with obs.observe() as observation:
            got = replicated.query(q, 8.0, 10)
            counters = observation.stats()["counters"]
    assert killed, "the query never reached a second round"
    assert reruns, "the re-run did not move to the sibling"
    assert len(set(rounds)) == 2  # one session per attempt
    assert counters["replica.failovers"] == 1
    same_answer(got, want)
    assert (got.opt_upper, got.certified_ratio) == (
        want.opt_upper, want.certified_ratio,
    )


# ---------------------------------------------------------------------------
# Budgets at the e2e smoke scale, sharded
# ---------------------------------------------------------------------------
#: Mean exact distance calls per cold query, n = 300, seed 11, for a
#: bundle (one frontier over its frame) and for the same bundle's
#: per-shard frontiers under the multi-frontier coordinator.  S = 2
#: dud smoke mix: measured 300.75 and 383.0 (535.25 with the Theorem 6–8
#: update walk; 926.0 while every shard drew its own vantage points and
#: embedded strangers against them).  S = 4 vec smoke mix: measured
#: 2 214.5 and 2 418.75 (2 442.0 with the update walk; 3 013.75 with
#: per-shard frames; 2 739.75 with eager foreign windows); one NBIndex
#: over the same instance, with vantage points of its own, pays 2 279.0.
DUD_S2_COLD_CALLS_BUDGET = {"bundle": 331, "coordinated": 441}
VEC_S4_COLD_CALLS_BUDGET = {"bundle": 2436, "coordinated": 2667}
#: What S = 4 may cost relative to one index (measured 0.97 and 1.06;
#: 1.04 with the update walk; 1.16 with eager foreign windows; 1.24 with
#: per-shard frames).
VEC_S4_OVER_SINGLE = {"bundle": 1.05, "coordinated": 1.15}
SHARDED = {"bundle": ShardedIndex, "coordinated": CoordinatedBundle}


def test_sharded_dud_smoke_mix_stays_under_budget(dud_bundles):
    database, manifests = dud_bundles
    for shape, cls in SHARDED.items():
        index = cls.load(manifests[2], database, StarDistance())
        calls = []
        for q, theta, k in dud_smoke_mix(database, 11):
            result = index.session(q).query(theta, k)
            same_answer(
                result, baseline_greedy(database, StarDistance(), q, theta, k)
            )
            calls.append(result.stats.distance_calls)
        assert np.mean(calls) <= DUD_S2_COLD_CALLS_BUDGET[shape], (shape, calls)


def test_sharded_vec_smoke_mix_stays_near_one_index(tmp_path):
    """The n = 300 ``vec_sharded`` shape of ``benchmarks/e2e``."""
    seed, n, dims = 11, 300, 6
    rng = np.random.default_rng([seed, 2])
    points = rng.normal(size=(n, dims))
    database, distance = vector_database(points)
    pairs = rng.integers(0, n, size=(n * 4, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    sample = np.linalg.norm(points[pairs[:, 0]] - points[pairs[:, 1]], axis=1)
    ladder = ThresholdLadder(sorted(
        float(np.quantile(sample, quantile))
        for quantile in (0.02, 0.05, 0.08, 0.12, 0.2, 0.35, 0.5)
    ))
    fn_dims = [(int(d),) for d in rng.permutation(dims)][:4]
    mix = [
        (quartile_relevance(database, dims=fn, quantile=0.7),
         float(ladder.values[(3, 4, 5)[position % 3]]),
         (4, 8, 16)[(position // 2) % 3])
        for position, fn in enumerate(fn_dims)
    ]
    build = dict(seed=seed, num_vantage_points=4)
    manifest = build_shards(
        database, distance, num_shards=4, out_dir=tmp_path, **build
    )
    single = NBIndex.build(database, distance, **build)
    for shape, cls in SHARDED.items():
        sharded = cls.load(manifest, database, distance)
        cold(single)
        sharded_calls, single_calls = [], []
        for q, theta, k in mix:
            got = sharded.session(q).query(theta, k)
            want = single.session(q).query(theta, k)
            same_answer(got, want)
            # Every graph's row of the bundle's one frame is stored:
            # seeing a stranger costs no distance.
            assert got.stats.coordinator["foreign_embeds"] == 0
            sharded_calls.append(got.stats.distance_calls)
            single_calls.append(want.stats.distance_calls)
        assert np.mean(sharded_calls) <= VEC_S4_COLD_CALLS_BUDGET[shape], (
            shape, sharded_calls,
        )
        assert sum(sharded_calls) <= VEC_S4_OVER_SINGLE[shape] * sum(
            single_calls
        ), (shape, sharded_calls, single_calls)
