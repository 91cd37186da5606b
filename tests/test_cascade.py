"""The query filter's gates: which bound runs is the metric's call, and
the caller has none.

The load-bearing claims under test:

* **The options are gone** — ``cascade=`` and ``epsilon=`` are unknown
  keywords on every index type, ``repro query --epsilon`` exits 2, and a
  wire request that still carries ``"cascade"`` or ``"epsilon"`` (well
  formed or not) is answered byte-identically to one without.
* **Selection by metric** — on a unit-cost ``ExactGED`` index a plain
  query runs the assignment lower bound and pays the pinned exact-call
  budget, bit-identical to ``baseline_greedy`` at S ∈ {1, 2}; on a
  ``StarDistance`` index no structural bound is ever evaluated.
* **The reference stays independent** — ``DistanceEngine.within`` without
  a query runtime (``baseline_greedy(engine=…)``) runs the vantage
  sandwich and exact only, on either metric.
* **Counter dedup** — a candidate window followed by a prefiltered
  ``within`` emits ``cascade.vantage.block_evals`` exactly once (the
  ``filter.block_evals`` double-count regression).
* **No vantage pass inside a query's filter** — a frontier's window runs
  the whole sandwich, so a query's cascade books no ``vantage`` step and
  moves no prefilter counter (NB-Index, S = 2 bundle, mutable S = 2 with
  a memtable), while the referee keeps it.
"""

from __future__ import annotations

import io
import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import baseline_greedy, obs, open_index
from repro.cascade import BLOCK_EVALS, FilterCascade
from repro.cli import main as cli_main
from repro.engine import DistanceEngine
from repro.ged import ExactGED, StarDistance
from repro.graphs import quartile_relevance
from repro.index import NBIndex, save_index
from repro.replica import ReplicatedIndex
from repro.service import QueryService, parse_request, serve_lines
from repro.service.protocol import encode
from repro.shard import ShardedIndex, build_shards
from tests.conftest import random_database, rungs

BUILD = dict(num_vantage_points=5, seed=7)


@pytest.fixture(scope="module")
def db():
    return random_database(seed=21, size=48)


@pytest.fixture(scope="module")
def index(db):
    return NBIndex.build(db, StarDistance(), **BUILD)


@pytest.fixture(scope="module")
def relevance(db):
    return quartile_relevance(db)


@pytest.fixture(scope="module")
def bundle(db, tmp_path_factory):
    out = tmp_path_factory.mktemp("cascade-bundle")
    return build_shards(
        db, StarDistance(), num_shards=4, out_dir=out, seed=7,
        num_vantage_points=5,
    )


@pytest.fixture(scope="module")
def sharded(bundle, db):
    idx = ShardedIndex.load(bundle, db, StarDistance())
    yield idx
    idx.close()


def assert_same_result(got, want):
    assert got.answer == want.answer
    assert got.gains == want.gains
    assert got.covered == want.covered
    assert got.num_relevant == want.num_relevant


def _fresh_engine(distance, db, index):
    engine = DistanceEngine(distance, graphs=db.graphs)
    engine.attach_embedding(index.embedding)
    return engine


class TestCascadeConfig:
    def test_default_is_legacy(self):
        runtime = FilterCascade()
        assert not hasattr(runtime, "epsilon")
        assert runtime.snapshot() == {}

    def test_epsilon_flag_exits_2_on_the_cli(self, capsys):
        # Refused while parsing the command line: the database is never
        # opened (it does not exist).
        argv = ["query", "no-such.jsonl", "--k", "2", "--epsilon", "0.1"]
        with pytest.raises(SystemExit) as exit_:
            cli_main(argv)
        assert exit_.value.code == 2
        assert "--epsilon" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The options are gone; the reference path is untouched
# ---------------------------------------------------------------------------
def _refuse_on_every_shape(db, index, bundle, sharded, relevance, **kwargs):
    mutable = open_index(
        bundle, db.subset(range(len(db))), StarDistance(), mutable=True
    )
    with ReplicatedIndex.open(bundle, db, StarDistance(), replicas=1) as rep:
        for idx in (index, sharded, mutable, rep):
            with pytest.raises(TypeError, match=type(idx).__name__):
                idx.query(relevance, 8.0, 3, **kwargs)
    mutable.close()


class TestBitIdentity:
    def test_cascade_kwarg_is_gone(self, db, index, bundle, sharded, relevance):
        _refuse_on_every_shape(
            db, index, bundle, sharded, relevance, cascade="assignment,vantage"
        )

    def test_epsilon_kwarg_is_gone(self, db, index, bundle, sharded, relevance):
        _refuse_on_every_shape(
            db, index, bundle, sharded, relevance, epsilon=0.1
        )

    def test_explicit_default_matches_implicit(self, db, index):
        """On the star metric a query's runtime and the engine-held
        referee are the same filter: same masks, same pairs paid, and no
        structural bound is ever set up."""
        targets = list(range(len(db)))
        implicit = _fresh_engine(StarDistance(), db, index)
        explicit = _fresh_engine(StarDistance(), db, index)
        runtime = FilterCascade()
        for theta in (5.0, 8.0):
            for gid in range(0, len(db), 7):
                want = implicit.within(gid, targets, theta)
                got = explicit.within(gid, targets, theta, runtime=runtime)
                assert np.array_equal(got, want), (gid, theta)
        assert explicit.evaluations == implicit.evaluations
        assert set(runtime.snapshot()) == {"vantage"}
        assert explicit._stage_features is None

    def test_star_index_evaluates_no_structural_bound(self, index, relevance):
        got = index.query(relevance, 8.0, 3)
        assert "assignment" not in got.stats.cascade
        assert index.engine._stage_features is None

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_exact_ged_matches_baseline_greedy(self, data):
        """S ∈ {1, 2} on unit-cost ``ExactGED`` — where the assignment
        bound runs — against the greedy that evaluates every pair."""
        seed = data.draw(st.integers(0, 2**16), label="seed")
        database = random_database(
            seed=seed, size=data.draw(st.integers(8, 30), label="size"),
            max_nodes=6,
        )
        q = quartile_relevance(
            database, quantile=data.draw(st.sampled_from([0.1, 0.4, 0.7]))
        )
        k = data.draw(st.integers(1, 8), label="k")
        build = dict(num_vantage_points=3, seed=seed)
        single = NBIndex.build(database, ExactGED(), **build)
        thetas = rungs(database.graphs, single.engine, seed=seed)
        rung = data.draw(st.integers(0, len(thetas) - 1), label="rung")
        theta = thetas[rung] * data.draw(st.sampled_from([0.7, 1.0]))
        want = baseline_greedy(database, ExactGED(), q, theta, k)
        assert_same_result(single.query(q, theta, k), want)
        with tempfile.TemporaryDirectory() as tmp:
            two = ShardedIndex.build(
                database, ExactGED(), out_dir=tmp, num_shards=2, **build,
            )
            got = two.query(q, theta, k)
            two.close()
        assert_same_result(got, want)


# ---------------------------------------------------------------------------
# Exact-distance call reduction where the bound pays: unit-cost ExactGED
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def exact_db():
    return random_database(seed=21, size=120, max_nodes=7)


@pytest.fixture(scope="module")
def exact_artifact(exact_db, tmp_path_factory):
    path = tmp_path_factory.mktemp("cascade-exact") / "index.npz"
    save_index(
        NBIndex.build(
            exact_db, ExactGED(), num_vantage_points=8, seed=7
        ),
        path,
    )
    return path


class TestCallReduction:
    def test_engine_evaluations_strictly_reduced(self, exact_db, exact_artifact):
        """Same engine set-up, referee vs a query's runtime: identical
        masks, strictly fewer exact distances, and the referee never
        touches the bound it referees."""
        index = open_index(exact_artifact, exact_db, ExactGED())
        referee = _fresh_engine(ExactGED(), exact_db, index)
        filtered = _fresh_engine(ExactGED(), exact_db, index)
        runtime = FilterCascade()
        targets = list(range(len(exact_db)))
        for gid in range(0, len(exact_db), 6):
            want = referee.within(gid, targets, 3.0)
            got = filtered.within(gid, targets, 3.0, runtime=runtime)
            assert np.array_equal(got, want)
        assert filtered.evaluations < referee.evaluations
        assert referee._stage_features is None
        snap = runtime.snapshot()
        assert snap["assignment"]["prunes"] > 0
        assert snap["assignment"]["evals"] >= snap["assignment"]["prunes"]

    def test_query_exact_verifications_reduced(self, exact_db, exact_artifact):
        """One cold query per freshly opened artifact.  The budget is what
        the deleted ``cascade="assignment,vantage"`` paid (vantage alone:
        534 / 999 / 1 321), now the default on this metric; the greedy it
        is checked against pays every pair among the 84 relevant, with no
        bound, exactly as before: one referee engine measures each of
        those pairs once and answers every θ from its pair cache."""
        q = quartile_relevance(exact_db, quantile=0.3)
        referee = DistanceEngine(ExactGED(), graphs=exact_db.graphs)
        for theta, budget in ((2.0, 277), (3.0, 536), (4.0, 857)):
            index = open_index(exact_artifact, exact_db, ExactGED())
            got = index.query(q, theta, 5)
            assert got.stats.distance_calls <= budget, theta
            assert got.stats.cascade["assignment"]["prunes"] > 0
            want = baseline_greedy(
                exact_db, ExactGED(), q, theta, 5, engine=referee
            )
            assert_same_result(got, want)
            assert referee.evaluations == 84 * 83 // 2
            assert referee._stage_features is None


# ---------------------------------------------------------------------------
# Counter dedup (the filter.block_evals regression)
# ---------------------------------------------------------------------------
class TestBlockEvalDedup:
    def test_prefiltered_within_counts_one_block_pass(self, db, index):
        engine, embedding = index.engine, index.embedding
        gid, theta = 0, 8.0
        among = np.arange(len(db))
        registry = obs.enable(fresh=True)
        try:
            window = embedding.candidates(gid, theta + 1e-9, among)
            targets = [int(g) for g in window]
            pre = engine.within(gid, targets, theta, prefiltered=True)
            counters = registry.snapshot()["counters"]
            assert counters.get(BLOCK_EVALS, 0) == 1
            assert "filter.block_evals" not in counters
            # The skipped vantage step provably rejects nothing: the mask
            # matches a full (non-prefiltered) run over the same window.
            full = engine.within(gid, targets, theta)
            counters = registry.snapshot()["counters"]
            assert counters.get(BLOCK_EVALS, 0) == 2
            assert counters["engine.prefilter.lower_rejections"] == 0
        finally:
            obs.disable()
        assert np.array_equal(pre, full)

    def test_legacy_counter_name_is_gone(self):
        import repro.index.vantage as vantage
        import repro.shard.frontier as frontier
        import inspect

        for module in (vantage, frontier):
            assert "filter.block_evals" not in inspect.getsource(module)


# ---------------------------------------------------------------------------
# No vantage pass inside a query's filter; the referee keeps its sandwich
# ---------------------------------------------------------------------------
def _prefilter_counts(engines):
    return [
        (e.prefilter_upper_accepts, e.prefilter_lower_rejections)
        for e in engines
    ]


class TestNoVantagePassInQueries:
    """A frontier's window runs the whole vantage sandwich at the query's
    one threshold, so the filter it hands the rest to has nothing left to
    decide there and skips the step."""

    def _assert_no_vantage_pass(self, idx, engines, relevance):
        before = _prefilter_counts(engines)
        verified = 0
        for theta, k in ((8.0, 3), (6.0, 4)):
            got = idx.query(relevance, theta, k)
            verified += got.stats.candidate_verifications
            assert "vantage" not in got.stats.cascade, got.stats.cascade
        assert verified > 0  # the filter ran
        assert _prefilter_counts(engines) == before

    def test_nbindex_query(self, db, relevance):
        fresh = NBIndex.build(db, StarDistance(), **BUILD)
        self._assert_no_vantage_pass(fresh, [fresh.engine], relevance)

    def test_s2_bundle_query(self, db, relevance, tmp_path):
        bundle = build_shards(
            db, StarDistance(), num_shards=2, out_dir=tmp_path, seed=7,
            num_vantage_points=5,
        )
        two = ShardedIndex.load(bundle, db, StarDistance())
        try:
            self._assert_no_vantage_pass(two, [two.engine], relevance)
        finally:
            two.close()

    def test_mutable_s2_query_with_a_memtable(self, db, tmp_path):
        bundle = build_shards(
            db.subset(range(40)), StarDistance(), num_shards=2,
            out_dir=tmp_path, seed=7, num_vantage_points=5,
        )
        mutable = open_index(
            bundle, db.subset(range(40)), StarDistance(), mutable=True
        )
        try:
            for gid in range(40, len(db)):
                mutable.insert(db[gid], db.features[gid])
            assert mutable.memtable_size > 0
            engines = [mutable.engine, mutable.base.engine]
            self._assert_no_vantage_pass(
                mutable, engines, quartile_relevance(mutable.database)
            )
        finally:
            mutable.close()

    def test_referee_keeps_the_sandwich(self, db, index, relevance):
        engine = _fresh_engine(StarDistance(), db, index)
        want = baseline_greedy(db, StarDistance(), relevance, 8.0, 3)
        got = baseline_greedy(
            db, StarDistance(), relevance, 8.0, 3, engine=engine
        )
        assert_same_result(got, want)
        assert engine.prefilter_lower_rejections > 0
        assert engine.prefilter_upper_accepts > 0


# ---------------------------------------------------------------------------
# The wire: service validation and round trips (S ∈ {1, 4}, replicas=2)
# ---------------------------------------------------------------------------
PLAIN_LINE = '{"id": 7, "theta": 8.0, "k": 3}'
#: Keys an older client may still send: each lands in ``extra`` and the
#: response is byte-identical to PLAIN_LINE's — an exact answer meets
#: every ε's contract ``N_{(1−ε)θ} ⊆ N' ⊆ N_θ``, well formed or not.
STALE_LINES = [
    '{"id": 7, "theta": 8.0, "k": 3, '
    '"cascade": ["label_size", "assignment", "vantage"]}',
    '{"id": 7, "theta": 8.0, "k": 3, "epsilon": 0.1}',
    '{"id": 7, "theta": 8.0, "k": 3, "epsilon": "x"}',
    '{"id": 7, "theta": 8.0, "k": 3, "epsilon": NaN}',
    '{"id": 7, "theta": 8.0, "k": 3, "epsilon": 1.5}',
]
#: Requests the protocol still refuses before admission.
BAD_LINES = [
    '{"id": 1, "theta": -8.0, "k": 2}',
    '{"id": 2, "theta": 8.0, "k": 0}',
    '{"id": 3, "theta": 8.0, "k": 2, "quantile": 1.5}',
    '{"id": 4, "theta": 8.0, "k": 2, "dims": "x"}',
]


class TestWire:
    def test_parse_accepts_cascade_fields(self):
        """A client that still sends ``cascade`` or ``epsilon`` is not
        refused: like any unknown key they land in ``extra`` and select
        nothing."""
        req = parse_request(json.dumps({
            "id": 9, "theta": 8.0, "k": 2,
            "cascade": ["label_size", "assignment", "vantage"],
            "epsilon": 0.05,
        }))
        assert req.extra == {
            "cascade": ["label_size", "assignment", "vantage"],
            "epsilon": 0.05,
        }
        assert not hasattr(req, "cascade") and not hasattr(req, "epsilon")

    def test_parse_defaults(self):
        req = parse_request(PLAIN_LINE)
        assert req.extra == {}

    def _assert_round_trips(self, svc, direct):
        """A stale key changes no byte of the response, and no response
        carries ``approximate`` or ``epsilon``."""
        plain = encode(svc.call(parse_request(PLAIN_LINE)))
        for line in STALE_LINES:
            assert encode(svc.call(parse_request(line))) == plain, line
        result = json.loads(plain)["result"]
        assert result["answer"] == [int(g) for g in direct.answer]
        assert "approximate" not in result
        assert "epsilon" not in result

    def _assert_rejected_before_admission(self, svc):
        """Run last: ``serve_lines`` drains the service when it returns."""
        admitted = svc.admission.stats()["admitted"]
        lines = BAD_LINES + ['{"id": 99, "theta": 8.0, "k": 2}']
        out = io.StringIO()
        serve_lines(svc, iter(f"{ln}\n" for ln in lines), out)
        responses = [json.loads(ln) for ln in out.getvalue().splitlines()]
        for response in responses[:-1]:
            assert response["ok"] is False
            assert response["error"]["code"] == "invalid_request"
        # Only the follow-up query took a queue slot, and nothing crashed.
        assert responses[-1]["ok"] is True
        assert svc.admission.stats()["admitted"] == admitted + 1
        assert svc.journal.stats()["crashes"] == 0

    def test_service_s1_rejects_and_round_trips(self, index, relevance):
        direct = index.query(relevance, 8.0, 3)
        with QueryService(index) as svc:
            self._assert_round_trips(svc, direct)
            self._assert_rejected_before_admission(svc)

    def test_service_s4_rejects_and_round_trips(self, sharded, relevance):
        direct = sharded.query(relevance, 8.0, 3)
        with QueryService(sharded) as svc:
            self._assert_round_trips(svc, direct)
            self._assert_rejected_before_admission(svc)

    def test_replicated_r2_rejects_and_round_trips(
        self, bundle, db, sharded, relevance,
    ):
        want = sharded.query(relevance, 8.0, 3)
        with ReplicatedIndex.open(
            bundle, db, StarDistance(), replicas=2,
        ) as rep:
            assert_same_result(rep.query(relevance, 8.0, 3), want)
            with QueryService(rep) as svc:
                self._assert_round_trips(svc, want)
                self._assert_rejected_before_admission(svc)
