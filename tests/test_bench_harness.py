"""Benchmark harness plumbing: contexts, result containers, printers."""

import pytest

import repro.bench.harness as harness
from repro.bench import (
    BenchContext,
    ExperimentResult,
    bench_scale,
    dataset_size,
    format_table,
    timed_call,
)


class TestScales:
    def test_default_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == "small"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "medium")
        assert bench_scale() == "medium"
        assert dataset_size("dud") == harness.SCALES["medium"]["dud"]

    def test_bad_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "gigantic")
        with pytest.raises(ValueError):
            bench_scale()

    def test_sweep_sizes_increasing(self):
        for name, row in harness.SCALES.items():
            assert list(row["sweep"]) == sorted(row["sweep"]), name
            assert set(row) == set(harness.SCALES["small"]), name


class TestExperimentResult:
    def test_column_extraction(self):
        result = ExperimentResult(
            name="x", columns=["a", "b"],
            rows=[{"a": 1, "b": 2}, {"a": 3}],
        )
        assert result.column("a") == [1, 3]
        assert result.column("b") == [2, None]

    def test_format_table_alignment_and_cells(self):
        result = ExperimentResult(
            name="demo",
            columns=["name", "value", "flag"],
            rows=[
                {"name": "alpha", "value": 0.12345, "flag": True},
                {"name": "b", "value": 12345.6, "flag": False},
                {"name": "c", "value": None, "flag": True},
            ],
            notes="a note",
        )
        text = format_table(result)
        assert "== demo ==" in text
        assert "a note" in text
        assert "0.123" in text
        assert "1.23e+04" in text
        assert "yes" in text and "no" in text
        assert "-" in text  # the None cell

    def test_write_result(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        result = ExperimentResult("probe", ["x"], [{"x": 1}])
        path = harness.write_result(result, format_table(result))
        assert path.read_text().startswith("== probe ==")


class TestTimedCall:
    def test_returns_result_and_elapsed(self):
        value, seconds = timed_call(lambda x: x * 2, 21)
        assert value == 42
        assert seconds >= 0.0


class TestBenchContext:
    @pytest.fixture(scope="class")
    def ctx(self):
        return BenchContext.create("dud", num_graphs=40, seed=3)

    def test_lazy_engines_cached(self, ctx):
        first = ctx.nbindex
        assert ctx.nbindex is first
        assert ctx.matrix is ctx.matrix
        # What a query is timed on is fresh, on an engine of its own over
        # the one metric: no comparator's pair cache warms another's.
        engines = [
            ctx.build_ctree()._engine, ctx.build_ctree()._engine,
            ctx.build_mtree()._engine, ctx.fresh_engine(), first.engine,
        ]
        assert len({id(engine) for engine in engines}) == len(engines)
        assert all(engine.inner is ctx.distance for engine in engines)

    def test_calibrated_theta_positive(self, ctx):
        assert ctx.theta > 0

    def test_relevance_quantiles(self, ctx):
        strict = ctx.relevance(quantile=0.9)
        loose = ctx.relevance(quantile=0.25)
        assert len(ctx.database.relevant_indices(strict)) <= len(
            ctx.database.relevant_indices(loose)
        )
