"""The query filter's gates: which bound runs is the metric's call, ε is
the caller's only one.

The load-bearing claims under test:

* **The option is gone** — ``cascade=`` is an unknown keyword on every
  index type, and a wire request that still carries ``"cascade"`` is
  answered byte-identically to one without.
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
* **ε semantics** — relaxed answers keep the no-false-positive sandwich
  ``N_{(1−ε)θ} ⊆ N' ⊆ N_θ`` and are flagged ``approximate`` end to end
  (S = 1, S = 4, R = 2, the wire body), never at ε = 0.
* **One ε validator** — the same table of malformed values is refused by
  the Python API (a ``ValueError``), the CLI (exit 2) and the wire (typed
  ``invalid_request`` before admission).
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
from repro.cascade import (
    BLOCK_EVALS,
    EpsilonError,
    FilterCascade,
    validate_epsilon,
)
from repro.cli import main as cli_main
from repro.engine import DistanceEngine
from repro.ged import ExactGED, StarDistance
from repro.graphs import quartile_relevance
from repro.index import NBIndex, save_index
from repro.replica import ReplicatedIndex
from repro.replica.remote import RemoteFrontier
from repro.replica.supervisor import WorkerHandle
from repro.service import (
    InvalidRequest,
    QueryRequest,
    QueryService,
    parse_request,
    serve_lines,
)
from repro.service.protocol import encode
from repro.shard import ShardedIndex, build_shards
from tests.conftest import random_database

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


# ---------------------------------------------------------------------------
# What is left to configure: ε — one validator, three surfaces
# ---------------------------------------------------------------------------
#: (Python value, JSON literal, command-line text or None where the
#: surface cannot spell it) — every row is refused on every surface.
BAD_EPSILONS = [
    (-0.1, "-0.1", "-0.1"),
    (1.0, "1.0", "1.0"),
    (1.5, "1.5", "1.5"),
    (float("nan"), "NaN", "nan"),
    ("x", '"x"', "x"),
    (True, "true", "true"),
    (float("inf"), "Infinity", "inf"),
    ("0.1", '"0.1"', None),  # on a command line 0.1 *is* the number
]
BAD_LINES = [
    f'{{"id": {i}, "theta": 8.0, "k": 2, "epsilon": {literal}}}'
    for i, (_, literal, _) in enumerate(BAD_EPSILONS, 1)
]
#: Every spelling of "exact".
EXACT_EPSILONS = [None, 0, 0.0, -0.0]


class TestCascadeConfig:
    def test_default_is_legacy(self):
        runtime = FilterCascade()
        assert runtime.epsilon == 0.0
        assert not runtime.approximate
        assert runtime.generation_theta(8.0) == 8.0
        assert runtime.snapshot() == {}

    @pytest.mark.parametrize("epsilon", [row[0] for row in BAD_EPSILONS])
    def test_bad_epsilon_rejected(self, index, relevance, epsilon):
        with pytest.raises(EpsilonError):
            validate_epsilon(epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            index.query(relevance, 8.0, 2, epsilon=epsilon)

    @pytest.mark.parametrize(
        "text", [row[2] for row in BAD_EPSILONS if row[2] is not None]
    )
    def test_bad_epsilon_exits_2_on_the_cli(self, text, capsys):
        # Refused while parsing the command line: the database is never
        # opened (it does not exist).
        argv = ["query", "no-such.jsonl", "--k", "2", f"--epsilon={text}"]
        try:
            code = cli_main(argv)
        except SystemExit as exit_:  # argparse's own float() refusal
            code = exit_.code
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", EXACT_EPSILONS)
    def test_exact_spellings(self, index, relevance, epsilon):
        assert str(validate_epsilon(epsilon)) == "0.0"  # never "-0.0"
        got = index.query(relevance, 8.0, 2, epsilon=epsilon)
        assert not got.stats.approximate and got.stats.epsilon == 0.0
        line = json.dumps({"id": 1, "theta": 8.0, "k": 2, "epsilon": epsilon})
        assert str(parse_request(line).epsilon) == "0.0"

    def test_generation_theta(self):
        runtime = FilterCascade(0.25)
        assert runtime.generation_theta(8.0) == pytest.approx(6.0)
        assert runtime.approximate


# ---------------------------------------------------------------------------
# The option is gone; the reference path is untouched
# ---------------------------------------------------------------------------
class TestBitIdentity:
    def test_cascade_kwarg_is_gone(self, db, index, bundle, sharded, relevance):
        mutable = open_index(
            bundle, db.subset(range(len(db))), StarDistance(), mutable=True
        )
        with ReplicatedIndex.open(bundle, db, StarDistance(), replicas=1) as rep:
            for idx in (index, sharded, mutable, rep):
                with pytest.raises(TypeError, match=type(idx).__name__):
                    idx.query(relevance, 8.0, 3, cascade="assignment,vantage")
        mutable.close()

    def test_explicit_default_matches_implicit(self, db, index):
        """On the star metric a query's ε = 0 runtime and the engine-held
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
        rung = data.draw(st.integers(0, len(single.ladder) - 1), label="rung")
        theta = float(single.ladder[rung]) * data.draw(st.sampled_from([0.7, 1.0]))
        want = baseline_greedy(database, ExactGED(), q, theta, k)
        assert_same_result(single.query(q, theta, k), want)
        with tempfile.TemporaryDirectory() as tmp:
            two = ShardedIndex.build(
                database, ExactGED(), out_dir=tmp, num_shards=2,
                thresholds=single.ladder, **build,
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
        bound, exactly as before."""
        q = quartile_relevance(exact_db, quantile=0.3)
        for theta, budget in ((2.0, 277), (3.0, 536), (4.0, 857)):
            index = open_index(exact_artifact, exact_db, ExactGED())
            got = index.query(q, theta, 5)
            assert got.stats.distance_calls <= budget, theta
            assert got.stats.cascade["assignment"]["prunes"] > 0
            referee = DistanceEngine(ExactGED(), graphs=exact_db.graphs)
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
            # The skipped lower pass provably rejects nothing: the mask
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
# ε > 0 approximate mode
# ---------------------------------------------------------------------------
class TestApproximateMode:
    def test_engine_sandwich(self, db, index):
        """ε-relaxed masks: no false positives vs θ, no misses vs (1−ε)θ."""
        engine = index.engine
        targets = list(range(len(db)))
        theta, epsilon = 8.0, 0.1
        for gid in range(0, len(db), 5):
            exact = engine.within(gid, targets, theta)
            inner = engine.within(gid, targets, (1 - epsilon) * theta)
            relaxed = engine.within(
                gid, targets, theta, runtime=FilterCascade(epsilon),
            )
            assert not np.any(relaxed & ~exact)   # N' ⊆ N_θ
            assert not np.any(inner & ~relaxed)   # N_{(1−ε)θ} ⊆ N'

    def test_query_flags_approximate(self, index, relevance):
        exact = index.query(relevance, 8.0, 4)
        got = index.query(relevance, 8.0, 4, epsilon=0.05)
        assert got.stats.approximate
        assert got.stats.epsilon == pytest.approx(0.05)
        assert not exact.stats.approximate
        assert len(got.answer) <= len(exact.answer)
        # Approximate coverage never exceeds what the exact run certifies.
        assert got.pi <= exact.pi + 1e-12

    def test_sharded_flags_approximate(self, sharded, relevance):
        got = sharded.query(relevance, 8.0, 4, epsilon=0.05)
        assert got.stats.approximate
        assert got.stats.epsilon == pytest.approx(0.05)


# ---------------------------------------------------------------------------
# The wire: service validation and round trips (S ∈ {1, 4}, replicas=2)
# ---------------------------------------------------------------------------
PLAIN_LINE = '{"id": 7, "theta": 8.0, "k": 3}'
STALE_LINE = (
    '{"id": 7, "theta": 8.0, "k": 3, '
    '"cascade": ["label_size", "assignment", "vantage"]}'
)


class TestWire:
    def test_parse_accepts_cascade_fields(self):
        """A client that still sends ``cascade`` is not refused: like any
        unknown key it lands in ``extra`` and selects nothing."""
        req = parse_request(json.dumps({
            "id": 9, "theta": 8.0, "k": 2,
            "cascade": ["label_size", "assignment", "vantage"],
            "epsilon": 0.05,
        }))
        assert req.extra == {"cascade": ["label_size", "assignment", "vantage"]}
        assert not hasattr(req, "cascade")
        assert req.epsilon == pytest.approx(0.05)

    def test_parse_defaults(self):
        req = parse_request(PLAIN_LINE)
        assert req.epsilon == 0.0 and req.extra == {}

    @pytest.mark.parametrize("line", BAD_LINES)
    def test_malformed_rejected_before_admission(self, line):
        with pytest.raises(InvalidRequest):
            parse_request(line)

    def _assert_round_trips(self, svc, direct):
        """The stale ``cascade`` key changes no byte of the response;
        ``approximate``/``epsilon`` appear in the body only at ε > 0."""
        plain = svc.call(parse_request(PLAIN_LINE))
        assert encode(svc.call(parse_request(STALE_LINE))) == encode(plain)
        assert plain["result"]["answer"] == [int(g) for g in direct.answer]
        assert "approximate" not in plain["result"]
        assert "epsilon" not in plain["result"]
        approx = svc.call(QueryRequest(
            id=2, theta=8.0, k=3, epsilon=0.05,
        ))["result"]
        assert approx["approximate"] is True
        assert approx["epsilon"] == pytest.approx(0.05)

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

    def test_replica_open_frame_carries_epsilon_only_when_relaxed(self):
        """A worker knows its own metric: only ε travels, and an exact
        session's open frame is what it was before there was an ε."""
        class Recorder:
            """A router that answers every frame with a three-graph open."""

            def call(self, handle, payload):
                sent.append(payload)
                return {"ok": True, "r": {"relevant": 3, "min_gid": 0}}

        def open_payload(**kwargs):
            sent.clear()
            RemoteFrontier(
                Recorder(), WorkerHandle(0), "sid", dims=(0,),
                threshold=0.5, theta=8.0, relevant_global=np.arange(3),
                universe=None, **kwargs,
            )
            [payload] = sent  # the open frame, sent once, at build time
            return payload

        sent = []

        assert open_payload() == {
            "op": "open", "sid": "sid", "dims": [0], "threshold": 0.5,
            "theta": 8.0,
        }
        assert open_payload(epsilon=0.05) == {**open_payload(), "epsilon": 0.05}

    def test_replicated_r2_rejects_and_round_trips(
        self, bundle, db, sharded, relevance,
    ):
        want = sharded.query(relevance, 8.0, 3)
        with ReplicatedIndex.open(
            bundle, db, StarDistance(), replicas=2,
        ) as rep:
            got = rep.query(relevance, 8.0, 3)
            assert_same_result(got, want)
            assert not got.stats.approximate
            approx = rep.query(relevance, 8.0, 3, epsilon=0.05)
            assert approx.stats.approximate
            assert approx.stats.epsilon == pytest.approx(0.05)
            assert_same_result(
                approx, sharded.query(relevance, 8.0, 3, epsilon=0.05)
            )
            with QueryService(rep) as svc:
                self._assert_round_trips(svc, want)
                self._assert_rejected_before_admission(svc)
