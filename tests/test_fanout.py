"""Build fan-out: forked children at the build's coarse seams, same bits.

``repro.utils.fanout.fan_out`` deals work to one process per usable CPU when the
shares are big enough to repay a fork, unless another thread is alive —
the way a serving process compacting online keeps its builds inline — or a
fault plan is installed.  ``DistanceEngine.spread`` lets only metrics with
no state outside the engine leave the process.  The tests run each build in
both shapes: *fanned* (forks counted, and required where the work may fork
and the box has a CPU to spare) and *inline* (a second thread held alive,
no fork allowed), and both must agree bit for bit with each other and with
the serial reference.
"""

import hashlib
import io
import json
import os
import threading
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

import repro
from repro import NBIndex, StarDistance, build_shards
from repro.datasets import GENERATORS
from repro.engine import DistanceEngine
from repro.ged import CountingDistance
from repro.metricspace import vector_database
from repro.resilience import CorruptIndexError, Deadline, faults
from repro.resilience.atomicio import read_checksummed
from repro.resilience.deadline import deadline_scope
from repro.resilience.faults import FaultPlan
from repro.utils import fanout
from repro.utils.fanout import fan_out
from tests.conftest import random_database

MODES = ("fanned", "inline")
#: Enough evaluations for two shares.
TWO_SHARES = 2 * fanout.MIN_SHARE_PAIRS
CAN_FORK = fanout.workers(2, TWO_SHARES) == 2


@contextmanager
def process_shape(mode, *, forks_expected=True):
    """Run the block fanned out or inline; yields the list of forked pids.

    Fanned, the block must fork when ``forks_expected`` and this process
    has a CPU to spare, and must not otherwise; inline — another thread
    alive, as in a service — it must not fork."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    release = threading.Event()
    holder = threading.Thread(target=release.wait)
    if mode == "inline":
        holder.start()
    try:
        with mock.patch.object(os, "fork", counting_fork):
            yield forks
    finally:
        release.set()
        if mode == "inline":
            holder.join()
    assert bool(forks) == (mode == "fanned" and forks_expected and CAN_FORK)


def test_fan_out_keeps_the_order_and_uses_the_spare_cpus():
    with process_shape("fanned") as forks:
        got = fan_out(lambda x: (x * x, os.getpid()), range(7), TWO_SHARES)
    assert [square for square, _ in got] == [x * x for x in range(7)]
    assert len({pid for _, pid in got}) == 1 + len(forks)


def test_a_share_too_small_to_repay_a_fork_runs_inline():
    with process_shape("fanned", forks_expected=False):
        got = fan_out(lambda x: x + 1, range(7), TWO_SHARES - 1)
    assert got == list(range(1, 8))


def test_a_fault_plan_keeps_the_work_in_one_process():
    with faults.injected(FaultPlan()), process_shape(
        "fanned", forks_expected=False
    ):
        fan_out(lambda x: x, range(4), 10 * TWO_SHARES)


@pytest.mark.parametrize("failing", [0, 1])
def test_an_exception_keeps_its_type_and_every_child_is_reaped(failing):
    """Item 0 fails in the parent's own share, item 1 in a child's."""
    def crash(x):
        if x == failing:
            raise faults.SimulatedCrash(f"killed at item {x}")
        return x

    with process_shape("fanned") as forks:
        with pytest.raises(faults.SimulatedCrash, match=f"item {failing}"):
            fan_out(crash, range(4), TWO_SHARES)
    for pid in forks:
        with pytest.raises(ChildProcessError):  # reaped: no zombie left
            os.waitpid(pid, os.WNOHANG)


# ---------------------------------------------------------------------------
# DistanceEngine.columns == consecutive one_to_many calls
# ---------------------------------------------------------------------------
_DB = random_database(seed=23, size=200)
_FREE = [g.renumbered(None) for g in _DB.graphs]  # no graph_id
_STAR = StarDistance()
_VANTAGE = list(range(3, 200, 8))  # 25 database graphs

CASES = {
    # Vantage points are database graphs: every source is also a target,
    # and a later source meets its pair with an earlier one in the cache.
    "vantage": ([_DB[i] for i in _VANTAGE], _DB.graphs),
    "repeats": (
        [_DB[i] for i in [*_VANTAGE, 3, 10, 3]],
        [*_DB.graphs, *_DB.graphs[:4]],
    ),
    "free-standing": ([_FREE[i] for i in [*_VANTAGE, 3]], _FREE),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("metric", ["kernel", "serial"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_columns_book_what_a_loop_of_one_to_many_books(case, metric, mode):
    sources, targets = CASES[case]

    def engine():
        # A lambda may have side effects: it never leaves the process.
        made = DistanceEngine(
            StarDistance() if metric == "kernel" else lambda a, b: _STAR(a, b),
            graphs=_DB.graphs,
        )
        made.one_to_many(sources[0], targets[:5])  # a warm corner
        return made

    loop, fanned = engine(), engine()
    want = np.column_stack([loop.one_to_many(s, targets) for s in sources])
    with process_shape(mode, forks_expected=metric == "kernel"):
        got = fanned.columns(sources, targets)
    assert got.tolist() == want.tolist()
    # The pair table keeps no write order: compare its pairs in key order.
    keys, values = fanned._cache.items()
    want_keys, want_values = loop._cache.items()
    assert keys.tolist() == want_keys.tolist()
    assert values.tolist() == want_values.tolist()
    for counter in ("evaluations", "cache_hits", "batches"):
        assert getattr(fanned, counter) == getattr(loop, counter), counter


def test_a_column_block_under_a_deadline_never_leaves_the_process():
    """A child could not hand back the degradations its evaluations
    record, so under a deadline the block is a loop of one_to_many."""
    sources, targets = CASES["vantage"]
    loop = DistanceEngine(StarDistance(), graphs=_DB.graphs)
    want = np.column_stack([loop.one_to_many(s, targets) for s in sources])
    engine = DistanceEngine(StarDistance(), graphs=_DB.graphs)
    with deadline_scope(Deadline(expansion_limit=4)), process_shape(
        "fanned", forks_expected=False
    ):
        got = engine.columns(sources, targets)
    assert got.tolist() == want.tolist()


# ---------------------------------------------------------------------------
# Whole builds
# ---------------------------------------------------------------------------
def bundle_fingerprint(manifest_path) -> str:
    """sha1 over a bundle minus its timings: the manifest without ``build``
    and the artifacts' crc32s, every artifact array but ``build_seconds``."""
    digest = hashlib.sha1()
    body = json.loads(manifest_path.read_text())["manifest"]
    body.pop("build")
    for entry in body["shards"]:
        entry.pop("checksum")
    digest.update(json.dumps(body, sort_keys=True).encode())
    for entry in body["shards"]:
        payload = read_checksummed(manifest_path.parent / entry["path"])
        with np.load(io.BytesIO(payload)) as arrays:
            for name in sorted(set(arrays.files) - {"build_seconds"}):
                digest.update(name.encode() + arrays[name].tobytes())
    return digest.hexdigest()


#: n · b ≥ two shares at the shard seam, n · |V| at the frame's columns.
_DUD = GENERATORS["dud"](num_graphs=260, seed=5)
_WIDE = dict(num_vantage_points=20)


def _dud(num_shards, out_dir, distance=None):
    return build_shards(
        _DUD, distance or StarDistance(), num_shards=num_shards,
        out_dir=out_dir, seed=5, **_WIDE,
    )


def _vec(num_shards, out_dir):
    points = np.random.default_rng(7).normal(size=(300, 4))
    database, distance = vector_database(points)
    return build_shards(
        database, distance, num_shards=num_shards, out_dir=out_dir,
        seed=7, **_WIDE,
    )


@pytest.mark.parametrize(
    "make, num_shards, forks_expected",
    [(_dud, 1, True), (_dud, 2, True), (_dud, 3, True), (_vec, 4, False)],
    ids=["dud-S1", "dud-S2", "dud-S3", "vec-S4"],
)
def test_a_fanned_out_bundle_is_the_inline_bundle(
    make, num_shards, forks_expected, tmp_path
):
    """A vector metric wraps an arbitrary payload metric: it stays home."""
    fingerprints = {}
    for mode in MODES:
        with process_shape(mode, forks_expected=forks_expected):
            manifest = make(num_shards, tmp_path / mode)
        fingerprints[mode] = bundle_fingerprint(manifest)
    assert fingerprints["fanned"] == fingerprints["inline"]


def test_a_counted_metric_is_counted_in_its_own_process(tmp_path):
    calls = {}
    for mode in MODES:
        counted = CountingDistance(StarDistance())
        with process_shape(mode, forks_expected=False):
            _dud(2, tmp_path / mode, counted)
        calls[mode] = counted.calls
    assert calls["fanned"] == calls["inline"] > 0


def test_a_torn_write_tears_exactly_one_shard(tmp_path):
    with faults.injected(FaultPlan(torn_write=True)), process_shape(
        "fanned", forks_expected=False
    ):
        manifest = _dud(2, tmp_path)
    torn = []
    for entry in json.loads(manifest.read_text())["manifest"]["shards"]:
        try:
            read_checksummed(manifest.parent / entry["path"])
        except CorruptIndexError:
            torn.append(entry["shard_id"])
    assert torn == [0]


def _observed_build(mode) -> dict:
    database = GENERATORS["dud"](num_graphs=200, seed=9)
    with process_shape(mode), repro.observe() as run:
        NBIndex.build(
            database, StarDistance(), seed=9, num_vantage_points=24,
        )
        return run.registry.snapshot()["counters"]


def test_counters_of_a_fanned_out_build_add_up_to_the_inline_build():
    fanned, inline = _observed_build("fanned"), _observed_build("inline")
    assert fanned["ged.star.batch_pairs"] > 0
    assert fanned == inline
