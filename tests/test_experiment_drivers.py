"""Tier-1 smoke over the experiment registry.

Every entry of ``repro.bench.EXPERIMENTS`` runs on every dataset it
declares at the ``smoke`` row of ``SCALES`` — through ``run_experiment``,
the call ``repro experiment`` and ``benchmarks/bench_paper.py`` make — so
signature drift, column renames, a broken engine or a broken shape / call
count claim shows up in seconds.  Each run happens once per module; the
named tests below read further shape facts off the same results.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

import repro.bench.harness as harness
from repro.bench import EXPERIMENTS, SCALES, ExperimentResult, registry
from repro.bench.registry import stem
from repro.cli import main

ROOT = Path(__file__).resolve().parents[1]
CASES = [(entry.name, dataset)
         for entry in EXPERIMENTS for dataset in entry.runs()]
SMOKE = SCALES["smoke"]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``smoke(name, dataset)``: that run's result, computed once."""
    results_dir = tmp_path_factory.mktemp("results")
    patch = pytest.MonkeyPatch()
    patch.setattr(harness, "RESULTS_DIR", results_dir)
    patch.setenv("REPRO_BENCH_SCALE", "smoke")
    done = {}

    def run(name, dataset=None):
        key = stem(name, dataset)
        if key not in done:
            done[key] = registry.run_experiment(name, dataset)
            assert (results_dir / f"{key}.txt").read_text().startswith(
                f"== {key} =="
            )
        return done[key]

    yield run
    patch.undo()


@pytest.mark.parametrize(
    "name,dataset", CASES, ids=[stem(*case) for case in CASES]
)
def test_smoke(smoke, name, dataset):
    result = smoke(name, dataset)
    assert result.rows
    assert all(set(result.columns) <= set(row) for row in result.rows)
    assert "[scale: smoke]" in result.notes


class TestQualityDrivers:
    def test_fig2a(self, smoke):
        result = smoke("fig2a_disc_growth", "dud")
        assert result.columns[0] == "relevant"
        relevant = result.column("relevant")
        assert len(relevant) == 4 and relevant == sorted(relevant)

    def test_table4(self, smoke):
        result = smoke("table4_quality")
        # Per dataset: one row per k plus the DisC summary row.
        assert [row["k"] for row in result.rows[:3]] == [5, 10, 25]
        assert str(result.rows[3]["k"]).startswith("DisC(")
        assert len(result.rows) == 3 * 4

    def test_fig7(self, smoke):
        engines = {row["engine"] for row in smoke("fig7_qualitative").rows}
        assert engines == {"traditional_topk", "representative"}


class TestDistributionDrivers:
    def test_fig5ab(self, smoke):
        result = smoke("fig5ab_distance_cdf")
        assert result.column("dataset") == [
            name for name in registry.ALL for _ in range(12)
        ]

    def test_fig5ce(self, smoke):
        result = smoke("fig5ce_distance_hist")
        assert all(row["sigma"] > 0 for row in result.rows)

    def test_fig5fh(self, smoke):
        for dataset in registry.ALL:
            result = smoke("fig5fh_fpr", dataset)
            assert len(result.rows) == 5
            assert result.rows[0]["num_vps"] > 0


class TestScalingDrivers:
    def test_fig6h(self, smoke):
        assert smoke("fig6h_time_vs_dims", "dud").column("dims") == [1, 5, 10]

    def test_fig6i(self, smoke):
        result = smoke("fig6i_zoom")
        assert result.column("dataset") == list(registry.ALL)
        assert all(row["nb_refine_avg_s"] > 0 for row in result.rows)

    def test_ablation_bounds(self, smoke):
        result = smoke("ablation_bounds", "dud")
        assert result.column("variant") == ["full", "vo_only"]

    def test_ablation_insert(self, smoke):
        result = smoke("ablation_insert", "dud")
        assert result.column("index") == ["incremental", "rebuilt"]


class TestDistanceDriver:
    def test_ablation_distance_quality_tiny(self, smoke):
        result = smoke("ablation_distance_quality")
        by_name = {row["distance"]: row for row in result.rows}
        assert by_name["exact_astar"]["spearman_vs_exact"] == pytest.approx(1.0)
        assert by_name["star_metric"]["metric_on_sample"]


class TestSweepDrivers:
    """The size sweeps take their sizes from the active scale row."""

    def test_fig2b(self, smoke):
        result = smoke("fig2b_baseline_scaling", "dud")
        assert result.column("size") == list(SMOKE["sweep"])
        assert all(row["plain_greedy_calls"] > 0 for row in result.rows)

    def test_fig5ik(self, smoke):
        for dataset in registry.ALL:
            result = smoke("fig5ik_time_vs_theta", dataset)
            assert {"nbindex_s", "nbindex_calls", "ctree_greedy_calls",
                    "disc_calls", "div_calls"} <= set(result.columns)
            # The distance-matrix inset is Fig. 5(i)'s: DUD only.
            assert ("distmatrix_s" in result.columns) == (dataset == "dud")

    def test_fig6bd(self, smoke):
        for dataset in registry.ALL:
            result = smoke("fig6bd_time_vs_size", dataset)
            assert result.column("size") == list(SMOKE["sweep"])

    def test_fig6eg(self, smoke):
        assert smoke("fig6eg_time_vs_k", "dblp").column("k") == [5, 10, 25]

    def test_fig6j(self, smoke):
        result = smoke("fig6j_zoom_scaling", "dud")
        assert result.column("size") == list(SMOKE["sweep"])

    def test_fig6k_and_6l(self, smoke):
        build = smoke("fig6k_index_build", "dud")
        assert all(row["nb_distance_calls"] > 0 for row in build.rows)
        memory = smoke("fig6l_index_memory", "dud")
        assert all(row["nb_index_bytes"] > 0 for row in memory.rows)
        assert build.column("size") == memory.column("size")

    def test_ablation_vp_count(self, smoke):
        assert smoke("ablation_vp_count", "dud").column("num_vps") == [2, 8, 20]


class FakeContext:
    """Stands in for ``BenchContext``: what ``create`` was asked for."""

    @classmethod
    def create(cls, dataset, seed=7):
        return ("ctx", dataset, harness.dataset_size(dataset), seed)


class FakeBenchmark:
    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
        return fn(*args, **(kwargs or {}))


@pytest.fixture
def recorded(monkeypatch, tmp_path):
    """Swap every driver for a stub that records how it was called."""
    calls = []

    def recorder(entry):
        def driver(*args, **kwargs):
            dataset = None
            if entry.takes == "ctx":
                dataset = args[0][1]
            elif entry.takes == "dataset":
                dataset = args[0]
            calls.append((entry.name, args, kwargs))
            return ExperimentResult(stem(entry.name, dataset), ["x"], [{"x": 1}])

        driver.__name__ = entry.name
        return driver

    monkeypatch.setattr(registry, "EXPERIMENTS", tuple(
        replace(entry, driver=recorder(entry), check=lambda result, full: None)
        for entry in EXPERIMENTS
    ))
    monkeypatch.setattr(registry, "BenchContext", FakeContext)
    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
    return calls


class TestOneDeclaration:
    def test_cli_and_pytest_paths_call_every_driver_alike(
        self, recorded, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        assert main(["experiment", "--all"]) == 0
        through_cli = list(recorded)
        recorded.clear()

        spec = importlib.util.spec_from_file_location(
            "bench_paper", ROOT / "benchmarks" / "bench_paper.py"
        )
        bench_paper = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_paper)
        for name, dataset in bench_paper.CASES:
            bench_paper.test_paper_experiment(FakeBenchmark(), name, dataset)

        assert recorded == through_cli
        assert [call[0] for call in recorded] == [name for name, _ in CASES]

    def test_cli_sweeps_honour_the_scale(self, recorded, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "medium")
        sweeps = ["fig2b_baseline_scaling", "fig6bd_time_vs_size",
                  "fig6j_zoom_scaling", "fig6k_index_build",
                  "fig6l_index_memory"]
        for name in sweeps:
            assert main(["experiment", name, "--dataset", "dud"]) == 0
        assert [(name, kwargs["sizes"]) for name, _, kwargs in recorded] == [
            (name, SCALES["medium"]["sweep"]) for name in sweeps
        ]
        recorded.clear()
        assert main(["experiment", "fig2a_disc_growth"]) == 0
        assert recorded[0][1] == (("ctx", "dud", SCALES["medium"]["dud"], 7),)
