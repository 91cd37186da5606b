"""What a process pays to import :mod:`repro` and answer a distance batch.

Every deployment shape multiplies the import image by its process count
(driver, server, R × S replica workers), so the query path may load only
the third-party code it executes: numpy and one compiled SciPy extension
(:mod:`repro.ged.lsap`).  ``scipy.stats`` / ``scipy.spatial`` / ``networkx``
stay importable — by the functions that use them, when they are called.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.optimize

from repro.ged import lsap

SRC = Path(__file__).resolve().parents[1] / "src"

#: Parent commit: 1 318 modules for ``import repro`` alone; now ~330 for
#: the whole serving stack plus a batch.
MODULE_BUDGET = 400
FORBIDDEN = (
    "scipy.optimize", "scipy.stats", "scipy.spatial", "scipy.sparse",
    "scipy.linalg", "networkx",
)

_PROBE = """
import json, sys
import repro, repro.cli, repro.service, repro.replica, repro.delta
import repro.durability
from repro.datasets import GENERATORS
from repro.engine import DistanceEngine
from repro.ged import StarDistance

db = GENERATORS["dud"](num_graphs=3, seed=1)
engine = DistanceEngine(StarDistance(), graphs=db.graphs)
values = engine.one_to_many(0, [1, 2])
modules = sorted(sys.modules)

import scipy.optimize  # the public import must still work afterwards
from repro.ged import lsap

print(json.dumps({
    "modules": modules, "values": list(values),
    "same_solver": (
        scipy.optimize.linear_sum_assignment is lsap.linear_sum_assignment
    ),
}))
"""


def test_fresh_interpreter_stays_within_the_import_budget():
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True,
        timeout=120, env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == 0, completed.stderr
    probe = json.loads(completed.stdout)
    assert all(value > 0 for value in probe["values"])  # the batch ran
    modules = probe["modules"]
    # Neither the packages nor anything inside them, but the one extension.
    unwanted = {
        name for name in modules
        if any(name == pkg or name.startswith(pkg + ".") for pkg in FORBIDDEN)
    }
    assert unwanted <= {"scipy.optimize._lsap"}
    assert len(modules) <= MODULE_BUDGET
    assert probe["same_solver"]


_ONE_PROCESS_PROBE = """
import os, sys, tempfile
from contextlib import contextmanager
from pathlib import Path
import repro
from repro.datasets import GENERATORS
from repro.graphs import quartile_relevance
from repro.index import save_index


@contextmanager
def no_fork():
    def refuse():
        raise AssertionError("a query forked")

    os.fork, real = refuse, os.fork
    try:
        yield
    finally:
        os.fork = real


db = GENERATORS["dud"](num_graphs=40, seed=1)
donor = GENERATORS["dud"](num_graphs=2, seed=2)
distance = repro.StarDistance()
query_fn = quartile_relevance(db)
build = dict(num_vantage_points=4, branching=4, seed=0)
with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    save_index(repro.NBIndex.build(db, distance, **build), tmp / "index.npz")
    manifest = repro.build_shards(
        db, distance, num_shards=2, out_dir=tmp / "bundle", **build
    )
    with no_fork():
        single = repro.open_index(tmp / "index.npz", db, distance)
        theta = single.ladder.values[2]
        answers = [single.query(query_fn, theta, 3).answer]
        answers.append(
            repro.open_index(manifest, db, distance)
            .query(query_fn, theta, 3).answer
        )
        mutable = repro.open_index(manifest, db, distance, mutable=True)
        mutable.insert(donor[0], db.features[0])
        answers.append(mutable.query(query_fn, theta, 3).answer)
    mutable.compact()
    with no_fork():
        answers.append(mutable.query(query_fn, theta, 3).answer)
        mutable.close()

assert all(answers), answers
assert answers[0] == answers[1], answers
process_machinery = {"concurrent.futures.process", "multiprocessing.pool"}
assert not process_machinery & set(sys.modules), sorted(sys.modules)
"""


def test_every_index_shape_builds_and_answers_in_one_process():
    """Builds may fan out over forked children (``repro.utils.fanout.fan_out``);
    opening an index, querying it and inserting into it never fork, and
    no process-pool machinery is ever imported."""
    completed = subprocess.run(
        [sys.executable, "-c", _ONE_PROCESS_PROBE], capture_output=True,
        text=True, timeout=120,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == 0, completed.stderr


def test_direct_solver_agrees_with_scipys_public_one():
    rng = np.random.default_rng(19)
    for _ in range(500):
        size = int(rng.integers(1, 31))
        # Half-integers from a narrow range: the star costs' domain, with
        # plenty of tied optima — the two must break ties alike.
        cost = rng.integers(0, 9, size=(size, size)) / 2.0
        rows, cols = lsap.linear_sum_assignment(cost)
        expected_rows, expected_cols = scipy.optimize.linear_sum_assignment(cost)
        assert rows.tolist() == expected_rows.tolist()
        assert cols.tolist() == expected_cols.tolist()


def test_solver_falls_back_to_the_public_import(monkeypatch):
    def moved():
        raise FileNotFoundError("scipy rearranged its private files")

    monkeypatch.setattr(lsap, "_load_extension", moved)
    assert lsap._resolve() is scipy.optimize.linear_sum_assignment
