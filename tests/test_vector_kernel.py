"""The vector kernel: ``MinkowskiMetric.one_to_many`` behind the engine.

A :class:`~repro.metricspace.PayloadDistance` over a Minkowski metric is
its own batch evaluator: one source row against a block of payload rows,
one numpy block per engine batch.  Every value must equal the one-pair
metric bit for bit (``==``, never ``approx``), whatever the exponent,
dimension, batch length, repeated targets, appended payloads or the
renumbered ids of a shard's sub-database; and an engine over the batch path
must build and answer exactly as one over the serial metric, at equal
``evaluations``.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import ShardedIndex, build_shards
from repro.engine import DistanceEngine, batch_evaluator_for
from repro.ged import CountingDistance
from repro.graphs import LabeledGraph, quartile_relevance
from repro.metricspace import (
    MinkowskiMetric,
    metric_space_database,
    vector_database,
)
from tests.test_fanout import bundle_fingerprint

EXPONENTS = (1.0, 1.5, 2.0, 3.0, float("inf"))
DIMENSIONS = (1, 2, 6, 129, 300)
LENGTHS = (0, 1, 2, 64, 2000)


def _serial(metric, source, block) -> list[float]:
    return [metric(source, row) for row in block]


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("d", DIMENSIONS)
def test_the_kernel_is_the_one_pair_metric(p, d):
    rng = np.random.default_rng([int(d), int(min(p, 9) * 2)])
    metric = MinkowskiMetric(p)
    for length in LENGTHS:
        block = rng.normal(size=(length, d)) * 10.0 ** rng.integers(-3, 4)
        source = rng.normal(size=d)
        got = metric.one_to_many(source, block)
        assert got.dtype == np.float64 and got.shape == (length,)
        assert got.tolist() == _serial(metric, source, block)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from(EXPONENTS),
    d=st.sampled_from(DIMENSIONS),
    length=st.sampled_from(LENGTHS),
    scale=st.sampled_from((1e-3, 1.0, 1e3)),
    appended=st.integers(min_value=0, max_value=3),
    shard=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_engine_batches_equal_the_one_pair_distance(
    p, d, length, scale, appended, shard, seed
):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(12, d)) * scale
    database, distance = vector_database(points, p=p)
    rows = [row for row in points]
    for _ in range(appended):
        row = rng.normal(size=d) * scale
        gid = distance.append(row)
        database.append(LabeledGraph([f"o{gid}"]), row)
        rows.append(row)
    graphs = database.graphs
    if shard:  # renumbered ids: rows come from the labels, not graph_id
        members = sorted(rng.choice(len(graphs), size=len(graphs) // 2 + 1,
                                    replace=False).tolist())
        graphs = database.subset(members).graphs
        rows = [rows[i] for i in members]
    evaluator = batch_evaluator_for(distance)
    assert evaluator is distance
    source = int(rng.integers(len(graphs)))
    targets = rng.integers(len(graphs), size=length).tolist()  # repeats
    got = evaluator.one_to_many(graphs[source], [graphs[t] for t in targets])
    metric = MinkowskiMetric(p)
    assert got.tolist() == [metric(rows[source], rows[t]) for t in targets]
    assert got.tolist() == [distance(graphs[source], graphs[t]) for t in targets]


def test_only_a_bare_vector_distance_is_batched():
    database, distance = vector_database(np.eye(3))
    assert batch_evaluator_for(distance) is distance
    assert batch_evaluator_for(CountingDistance(distance)) is None
    assert batch_evaluator_for(lambda a, b: distance(a, b)) is None
    _, words = metric_space_database(["ab", "b"], lambda a, b: abs(len(a) - len(b)))
    assert batch_evaluator_for(words) is None
    counted = CountingDistance(distance)
    engine = DistanceEngine(counted, graphs=database.graphs)
    engine.one_to_many(0, np.arange(3))
    assert counted.calls == engine.evaluations == 3


def test_the_payloads_are_the_callers_matrix_until_it_must_grow():
    points = np.random.default_rng(0).normal(size=(5, 3))
    before = points.copy()
    _, distance = vector_database(points)
    assert distance._payloads.rows is points
    assert distance.append([1.0, 2.0, 3.0]) == 5
    assert distance._payloads.rows is not points
    assert np.array_equal(points, before)
    assert distance.payload(5).tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(IndexError):
        distance.payload(6)
    with pytest.raises(ValueError, match="shape"):
        distance.append([1.0, 2.0])


def test_a_reader_is_safe_while_the_matrix_grows():
    rng = np.random.default_rng(1)
    points = rng.normal(size=(4, 6))
    database, distance = vector_database(points)
    extra = rng.normal(size=(3000, 6))
    graphs = database.graphs[:4]
    block = [graphs[i % 4] for i in range(64)]
    want = distance.one_to_many(graphs[0], block).tolist()
    mismatches = []

    def read():
        while len(distance) < 4 + len(extra):
            if distance.one_to_many(graphs[0], block).tolist() != want:
                mismatches.append(len(distance))

    reader = threading.Thread(target=read)
    reader.start()
    for row in extra:
        distance.append(row)
    reader.join()
    assert mismatches == []
    late = LabeledGraph([f"o{len(distance) - 1}"])
    assert distance.one_to_many(late, [graphs[0]]).tolist() == [
        MinkowskiMetric()(extra[-1], points[0])
    ]


def test_a_label_with_no_payload_yet_raises_and_is_not_remembered():
    database, distance = vector_database(np.eye(2))
    early = LabeledGraph(["o2"])
    with pytest.raises(IndexError):
        distance.one_to_many(database[0], [early])
    with pytest.raises(IndexError):
        distance(database[0], early)
    distance.append([3.0, 4.0])
    assert distance.one_to_many(database[0], [early]).tolist() == [
        distance(database[0], early)
    ]


def test_a_graph_without_a_placeholder_label_resolves_by_graph_id():
    _, distance = vector_database(np.eye(3))
    odd = LabeledGraph(["x"], graph_id=2)
    assert distance.one_to_many(odd, [odd]).tolist() == [0.0]
    assert distance.one_to_many(LabeledGraph(["o0"]), [odd]).tolist() == [
        distance(LabeledGraph(["o0"]), odd)
    ]
    with pytest.raises(TypeError):
        distance.one_to_many(LabeledGraph(["y"]), [odd])


def test_sharded_build_and_queries_match_the_serial_metric(tmp_path):
    """``build_shards(S=4)`` over the batch path and over the same metric
    behind a lambda: the same bundle, the same answers, the same number
    of evaluations."""
    points = np.random.default_rng(11).normal(size=(400, 6))
    database, distance = vector_database(points)
    query_fn = quartile_relevance(database, dims=(0,), quantile=0.8)
    runs = {}
    for name, metric in (
        ("batch", distance), ("serial", lambda a, b: distance(a, b)),
    ):
        with repro.observe() as run:
            manifest = build_shards(
                database, metric, num_shards=4, out_dir=tmp_path / name,
                seed=11, num_vantage_points=6, branching=8,
            )
        sharded = ShardedIndex.load(manifest, database, metric)
        theta = sharded.ladder.values[3]
        result = sharded.query(query_fn, theta, 8)
        runs[name] = (
            bundle_fingerprint(manifest),
            run.stats()["counters"]["engine.evaluations"],
            result.answer, result.gains, result.pi,
            sharded.stats()["distance_calls"],
        )
    assert runs["batch"] == runs["serial"]
