"""Benchmark harness plumbing: scales, contexts, result containers.

Every experiment driver in :mod:`repro.bench.experiments` consumes a
:class:`BenchContext` — a dataset plus builders for the engines (NB-Index,
C-tree, M-tree, distance matrix) over a shared metric — and returns an
:class:`ExperimentResult` of printable rows.  Scales are centralized here
so the default run stays minutes-fast while the same drivers can be run
at larger sizes (``REPRO_BENCH_SCALE=medium|large``) or, for tier-1 and
CI, in seconds (``smoke``).  Which driver gets which arguments at a scale
is declared once, in :mod:`repro.bench.registry`.

The paper ran a Java implementation on datasets up to 128K graphs; pure
Python is orders of magnitude slower per edit distance, so the default
scale trades absolute size for preserved *shape* (see DESIGN.md §3.3).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from repro.baselines.ctree import CTree
from repro.baselines.distmatrix import DistanceMatrixOracle
from repro.baselines.mtree import MTree
from repro.datasets import load as load_dataset
from repro.engine import DistanceEngine
from repro.ged.star import StarDistance
from repro.graphs import quartile_relevance
from repro.index import NBIndex

#: What does not grow with the database: the exact-GED ablation's size, and
#: whether claims on seconds and on sample statistics are asserted beside
#: the ones on table shape and call counts.
_PAPER = {"exact_ged": {"num_graphs": 20, "num_pairs": 60},
          "full_claims": True}

#: Per-scale database sizes for the three datasets and the size sweep.
#: ``smoke`` is sized for seconds: its tables are checked for shape and
#: call counts only.
SCALES = {
    "smoke": {"dud": 50, "dblp": 16, "amazon": 30, "sweep": (25, 40),
              "exact_ged": {"num_graphs": 5, "num_pairs": 4},
              "full_claims": False},
    "small": {**_PAPER, "dud": 300, "dblp": 160, "amazon": 220,
              "sweep": (100, 200, 300)},
    "medium": {**_PAPER, "dud": 800, "dblp": 400, "amazon": 500,
               "sweep": (200, 400, 800)},
    "large": {**_PAPER, "dud": 2000, "dblp": 1000, "amazon": 1200,
              "sweep": (500, 1000, 2000)},
}

#: Directory where experiment tables are written.
RESULTS_DIR = Path(__file__).resolve().parents[3] / "results"


def bench_scale() -> str:
    """Active scale name (``REPRO_BENCH_SCALE``, default ``small``)."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    if scale not in SCALES:
        raise ValueError(f"REPRO_BENCH_SCALE must be one of {sorted(SCALES)}")
    return scale


def dataset_size(name: str) -> int:
    return SCALES[bench_scale()][name]


@dataclass
class ExperimentResult:
    """Rows of one regenerated table/figure."""

    name: str
    columns: list[str]
    rows: list[dict]
    notes: str = ""

    @classmethod
    def from_rows(cls, name: str, rows: list[dict], notes: str = ""):
        """Columns are the first row's keys, in the order it was built."""
        return cls(name, list(rows[0]), rows, notes)

    def column(self, key: str) -> list:
        return [row.get(key) for row in self.rows]


@dataclass
class BenchContext:
    """A dataset and the structures the experiments compare on it.

    Every comparator evaluates distances through a
    :class:`~repro.engine.DistanceEngine` of its *own* — one kernel behind
    every seconds column, a private pair cache behind each, so no row is
    warmed by another engine's work — and a timed query runs on a fresh
    structure whose cache holds what its build stored and no earlier
    query's (an NB-Index build stores none).  Count columns
    come from each structure's own counter.
    """

    name: str
    database: object
    distance: StarDistance
    theta: float
    seed: int = 7
    num_vantage_points: int = 12

    @classmethod
    def create(cls, dataset: str, num_graphs: int | None = None, seed: int = 7,
               **kwargs) -> "BenchContext":
        distance = StarDistance()
        spec = load_dataset(
            dataset, distance,
            num_graphs=num_graphs or dataset_size(dataset), seed=seed,
        )
        return cls(
            name=dataset, database=spec.database, distance=distance,
            theta=spec.theta, seed=seed, **kwargs,
        )

    def relevance(self, quantile: float = 0.75, dims=None):
        return quartile_relevance(self.database, dims=dims, quantile=quantile)

    def build_index(self, **overrides) -> NBIndex:
        """A fresh NB-Index with this context's parameters — its pair cache
        is empty, so a query on it is cold."""
        params = dict(
            num_vantage_points=self.num_vantage_points, seed=self.seed,
        )
        return NBIndex.build(self.database, self.distance,
                             **{**params, **overrides})

    @cached_property
    def nbindex(self) -> NBIndex:
        return self.build_index()

    def fresh_engine(self) -> DistanceEngine:
        """A fresh engine for a comparator that takes a bare distance
        (DisC, DIV, the plain greedy); the trees and the matrix wrap the
        context's metric in one of their own."""
        return DistanceEngine(self.distance, graphs=self.database.graphs)

    def build_ctree(self) -> CTree:
        return CTree(
            self.database.graphs, self.distance, capacity=16, seed=self.seed
        )

    def build_mtree(self) -> MTree:
        return MTree(
            self.database.graphs, self.distance, capacity=16, seed=self.seed
        )

    @cached_property
    def matrix(self) -> DistanceMatrixOracle:
        """Its queries are array scans, so one build serves every row."""
        return DistanceMatrixOracle(self.database, self.distance)


def timed_call(fn, *args, **kwargs) -> tuple[object, float]:
    """Run ``fn`` once; return (result, wall seconds)."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def write_result(result: ExperimentResult, formatted: str) -> Path:
    """Persist a formatted experiment table under ``results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{result.name}.txt"
    path.write_text(formatted)
    return path
