"""PR 10 cascade gates: config validation, ε = 0 bit-identity, call
reduction, counter dedup, ε-approximate semantics, and the wire.

The load-bearing claims under test:

* **Dual-run identity** — with ε = 0, a cascade of *any* stage subset or
  ordering answers bit-identically (ids, gains, selection order,
  coverage) to the current pipeline, at S = 1 (``NBIndex``) and S = 4
  (``ShardedIndex``).
* **Call reduction** — enabling the EmbAssi-style assignment stage
  strictly reduces exact-distance evaluations, asserted via stats.
* **Counter dedup** — a candidate window followed by a prefiltered
  ``within`` emits ``cascade.vantage.block_evals`` exactly once (the
  ``filter.block_evals`` double-count regression).
* **ε semantics** — relaxed answers keep the no-false-positive sandwich
  ``N_{(1−ε)θ} ⊆ N' ⊆ N_θ`` and are flagged ``approximate`` end to end.
* **The wire** — unknown stages and malformed epsilons are typed
  ``invalid_request`` rejections (never breaker hits) at S ∈ {1, 4} and
  under ``--replicas 2``.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro import obs, open_index
from repro.cascade import (
    DEFAULT_STAGES,
    FULL_STAGES,
    KNOWN_STAGES,
    CascadeConfig,
    CascadeConfigError,
    FilterCascade,
    resolve_cascade,
    runtime_for,
)
from repro.cascade.stages import BLOCK_EVALS
from repro.engine import DistanceEngine
from repro.ged import StarDistance
from repro.graphs import quartile_relevance
from repro.index import NBIndex, save_index
from repro.service import (
    InvalidRequest,
    QueryRequest,
    QueryService,
    parse_request,
    serve_lines,
)
from repro.shard import ShardedIndex, build_shards
from tests.conftest import random_database

BUILD = dict(num_vantage_points=5, branching=4, seed=7)


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
        num_vantage_points=5, branching=4,
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


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------
class TestCascadeConfig:
    def test_default_is_legacy(self):
        config = CascadeConfig()
        assert config.stages == DEFAULT_STAGES == ("vantage",)
        assert config.epsilon == 0.0
        assert config.is_default()
        assert not config.approximate

    def test_full_stages_cover_catalog(self):
        assert FULL_STAGES == KNOWN_STAGES
        assert set(DEFAULT_STAGES) <= set(KNOWN_STAGES)

    @pytest.mark.parametrize("stages", [
        (), ("label_size",), ("assignment", "vantage"), FULL_STAGES,
        ("vantage", "star", "assignment", "label_size"),
    ])
    def test_any_subset_and_order_is_legal(self, stages):
        config = CascadeConfig(stages=stages)
        assert config.stages == tuple(stages)

    @pytest.mark.parametrize("stages", [
        ("bogus",), ("vantage", "vantage"), ("label_size", "LABEL_SIZE"[:0] + "bogus"),
    ])
    def test_bad_stages_rejected(self, stages):
        with pytest.raises(CascadeConfigError):
            CascadeConfig(stages=stages)

    @pytest.mark.parametrize("epsilon", [-0.1, 1.0, 1.5, float("nan"), "x"])
    def test_bad_epsilon_rejected(self, epsilon):
        with pytest.raises(CascadeConfigError):
            CascadeConfig(epsilon=epsilon)

    def test_generation_theta(self):
        config = CascadeConfig(epsilon=0.25)
        assert config.generation_theta(8.0) == pytest.approx(6.0)
        assert config.approximate

    def test_wire_round_trip(self):
        config = CascadeConfig(stages=("label_size", "vantage"), epsilon=0.05)
        assert CascadeConfig.from_wire(config.to_wire()) == config
        assert json.loads(json.dumps(config.to_wire())) == config.to_wire()

    @pytest.mark.parametrize("payload", [
        "vantage",                      # not an object
        {"stages": "vantage"},          # stages not a list
        {"stages": [1]},                # non-string stage
        {"stages": ["vantage"], "x": 1},  # unknown key
        {"epsilon": 2.0},               # out of range
    ])
    def test_bad_wire_rejected(self, payload):
        with pytest.raises(CascadeConfigError):
            CascadeConfig.from_wire(payload)

    @pytest.mark.parametrize("spec, stages", [
        ("full", FULL_STAGES),
        ("default", DEFAULT_STAGES),
        ("none", ()),
        ("exact", ()),
        ("label_size,assignment", ("label_size", "assignment")),
        (None, DEFAULT_STAGES),
    ])
    def test_parse_specs(self, spec, stages):
        assert CascadeConfig.parse(spec).stages == stages

    def test_parse_rejects_unknown(self):
        with pytest.raises(CascadeConfigError):
            CascadeConfig.parse("label_size,warp_drive")

    def test_resolve_none_is_legacy_hot_path(self):
        assert resolve_cascade(None, 0.0) is None
        assert runtime_for(None, 0.0) is None

    def test_resolve_epsilon_alone_activates(self):
        config = resolve_cascade(None, 0.05)
        assert config is not None
        assert config.stages == DEFAULT_STAGES and config.epsilon == 0.05

    def test_resolve_accepts_every_surface(self):
        want = CascadeConfig(stages=FULL_STAGES)
        assert resolve_cascade("full") == want
        assert resolve_cascade(list(FULL_STAGES)) == want
        assert resolve_cascade({"stages": list(FULL_STAGES)}) == want
        assert resolve_cascade(want) is want
        runtime = runtime_for("full", 0.0)
        assert isinstance(runtime, FilterCascade)
        with pytest.raises(CascadeConfigError):
            resolve_cascade(42)


# ---------------------------------------------------------------------------
# ε = 0 dual-run bit-identity (the enforced gate)
# ---------------------------------------------------------------------------
SUBSETS = [
    (),
    ("label_size",),
    ("assignment", "vantage"),
    FULL_STAGES,
    ("vantage", "star", "assignment", "label_size"),
]


class TestBitIdentity:
    @pytest.mark.parametrize("theta", [6.0, 9.0])
    @pytest.mark.parametrize("stages", SUBSETS)
    def test_single_index(self, index, relevance, theta, stages):
        want = index.query(relevance, theta, 4)
        got = index.query(
            relevance, theta, 4, cascade=CascadeConfig(stages=stages),
        )
        assert_same_result(got, want)
        assert not got.stats.approximate
        assert got.stats.epsilon == 0.0

    @pytest.mark.parametrize("theta", [6.0, 9.0])
    @pytest.mark.parametrize("stages", SUBSETS)
    def test_sharded_s4(self, sharded, relevance, theta, stages):
        want = sharded.query(relevance, theta, 4)
        got = sharded.query(
            relevance, theta, 4, cascade=CascadeConfig(stages=stages),
        )
        assert_same_result(got, want)
        assert not got.stats.approximate

    def test_explicit_default_matches_implicit(self, index, relevance):
        """An explicit vantage-only config runs through the pipeline
        object yet stays bit-identical to the engine-held default."""
        want = index.query(relevance, 8.0, 3)
        got = index.query(relevance, 8.0, 3, cascade=CascadeConfig())
        assert_same_result(got, want)
        assert set(got.stats.cascade) <= set(KNOWN_STAGES)

    def test_engine_masks_identical_for_every_subset(self, db, index):
        engine = index.engine
        targets = list(range(len(db)))
        for theta in (5.0, 8.0):
            for gid in range(0, len(db), 7):
                want = engine.within(gid, targets, theta)
                for stages in SUBSETS:
                    runtime = FilterCascade(CascadeConfig(stages=stages))
                    got = engine.within(gid, targets, theta, cascade=runtime)
                    assert np.array_equal(got, want), (gid, theta, stages)


# ---------------------------------------------------------------------------
# Exact-distance call reduction (assignment stage enabled)
# ---------------------------------------------------------------------------
EMBASSI = CascadeConfig(stages=("label_size", "assignment", "vantage"))


def _fresh_engine(db, index):
    engine = DistanceEngine(StarDistance(), graphs=db.graphs)
    engine.attach_embedding(index.embedding)
    return engine

class TestCallReduction:
    def test_engine_evaluations_strictly_reduced(self, db, index):
        theta = 8.0
        targets = list(range(len(db)))
        baseline = _fresh_engine(db, index)
        filtered = _fresh_engine(db, index)
        runtime = FilterCascade(EMBASSI)
        for gid in range(len(db)):
            want = baseline.within(gid, targets, theta)
            got = filtered.within(gid, targets, theta, cascade=runtime)
            assert np.array_equal(got, want)
        assert filtered.evaluations < baseline.evaluations
        snap = runtime.snapshot()
        structural_prunes = (
            snap.get("label_size", {}).get("prunes", 0)
            + snap.get("assignment", {}).get("prunes", 0)
        )
        assert structural_prunes > 0
        assert snap["assignment"]["evals"] >= snap["assignment"]["prunes"]

    def test_query_exact_verifications_reduced(self, db, relevance, tmp_path):
        """One build opened twice from disk (cold pair caches: pairs the
        engine has already evaluated never reach any stage); only the
        cascade differs — fewer pairs reach exact verification
        (``engine.prefilter.verified``), and the pair cache never pays
        more evaluations."""
        save_index(
            NBIndex.build(db, StarDistance(), **BUILD), tmp_path / "index.npz"
        )
        plain = open_index(tmp_path / "index.npz", db)
        cascaded = open_index(tmp_path / "index.npz", db)
        theta = 4.0

        def verified(index, **kwargs):
            registry = obs.enable(fresh=True)
            try:
                result = index.query(relevance, theta, 4, **kwargs)
                count = registry.snapshot()["counters"]["engine.prefilter.verified"]
            finally:
                obs.disable()
            return result, count

        want, verified_plain = verified(plain)
        got, verified_cascaded = verified(cascaded, cascade=EMBASSI)
        assert_same_result(got, want)
        assert verified_cascaded < verified_plain
        assert got.stats.distance_calls <= want.stats.distance_calls
        assert got.stats.cascade["assignment"]["prunes"] > 0


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
                gid, targets, theta,
                cascade=FilterCascade(CascadeConfig(epsilon=epsilon)),
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
BAD_LINES = [
    '{"id": 1, "theta": 8.0, "k": 2, "cascade": "vantage"}',
    '{"id": 2, "theta": 8.0, "k": 2, "cascade": ["warp_drive"]}',
    '{"id": 3, "theta": 8.0, "k": 2, "cascade": ["vantage", "vantage"]}',
    '{"id": 4, "theta": 8.0, "k": 2, "cascade": [1]}',
    '{"id": 5, "theta": 8.0, "k": 2, "epsilon": "fast"}',
    '{"id": 6, "theta": 8.0, "k": 2, "epsilon": true}',
    '{"id": 7, "theta": 8.0, "k": 2, "epsilon": 1.0}',
    '{"id": 8, "theta": 8.0, "k": 2, "epsilon": -0.5}',
]


class TestWire:
    def test_parse_accepts_cascade_fields(self):
        req = parse_request(json.dumps({
            "id": 9, "theta": 8.0, "k": 2,
            "cascade": ["label_size", "assignment", "vantage"],
            "epsilon": 0.05,
        }))
        assert req.cascade == ("label_size", "assignment", "vantage")
        assert req.epsilon == pytest.approx(0.05)

    def test_parse_defaults(self):
        req = parse_request('{"id": 1, "theta": 8.0, "k": 2}')
        assert req.cascade is None and req.epsilon == 0.0

    @pytest.mark.parametrize("line", BAD_LINES)
    def test_malformed_rejected_before_admission(self, line):
        with pytest.raises(InvalidRequest):
            parse_request(line)

    def _assert_rejected_not_breaker(self, svc):
        """Run last: ``serve_lines`` drains the service when it returns."""
        lines = BAD_LINES + ['{"id": 99, "theta": 8.0, "k": 2}']
        out = io.StringIO()
        serve_lines(svc, iter(f"{ln}\n" for ln in lines), out)
        responses = [json.loads(ln) for ln in out.getvalue().splitlines()]
        for response in responses[:-1]:
            assert response["ok"] is False
            assert response["error"]["code"] == "invalid_request"
        # The breaker never saw a hit: the follow-up query runs normally.
        assert responses[-1]["ok"] is True
        assert responses[-1]["result"]["bound_only"] is False
        assert svc.stats()["breaker"]["state"] == "closed"

    def test_service_s1_rejects_and_round_trips(self, db, index, relevance):
        direct = index.query(
            relevance, 8.0, 3, cascade=CascadeConfig(stages=FULL_STAGES),
        )
        with QueryService(index) as svc:
            response = svc.call(QueryRequest(
                id=1, theta=8.0, k=3, cascade=FULL_STAGES,
            ))
            result = response["result"]
            assert result["answer"] == [int(g) for g in direct.answer]
            assert "approximate" not in result  # ε = 0 stays byte-identical
            approx = svc.call(QueryRequest(
                id=2, theta=8.0, k=3, epsilon=0.05,
            ))["result"]
            assert approx["approximate"] is True
            assert approx["epsilon"] == pytest.approx(0.05)
            self._assert_rejected_not_breaker(svc)

    def test_service_s4_rejects_and_round_trips(self, sharded, relevance):
        direct = sharded.query(
            relevance, 8.0, 3, cascade=CascadeConfig(stages=FULL_STAGES),
        )
        with QueryService(sharded) as svc:
            result = svc.call(QueryRequest(
                id=1, theta=8.0, k=3, cascade=FULL_STAGES,
            ))["result"]
            assert result["answer"] == [int(g) for g in direct.answer]
            assert "approximate" not in result
            self._assert_rejected_not_breaker(svc)

    def test_replicated_r2_rejects_and_round_trips(
        self, bundle, db, sharded, relevance,
    ):
        from repro.replica import ReplicatedIndex

        want = sharded.query(
            relevance, 8.0, 3, cascade=CascadeConfig(stages=FULL_STAGES),
        )
        with ReplicatedIndex.open(
            bundle, db, StarDistance(), replicas=2,
        ) as rep:
            got = rep.query(
                relevance, 8.0, 3, cascade=CascadeConfig(stages=FULL_STAGES),
            )
            assert_same_result(got, want)
            assert not got.stats.approximate
            approx = rep.query(relevance, 8.0, 3, epsilon=0.05)
            assert approx.stats.approximate
            assert approx.stats.epsilon == pytest.approx(0.05)
            with QueryService(rep) as svc:
                self._assert_rejected_not_breaker(svc)
