"""Documentation artifacts: presence, API-reference generator."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class TestDocsPresence:
    def test_core_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                     "docs/theory.md", "docs/usage.md", "docs/internals.md"):
            assert (ROOT / name).exists(), name

    def test_design_lists_every_benchmark_file(self):
        """DESIGN.md §4 is the per-experiment index: it names every entry of
        the experiment registry."""
        from repro.bench import EXPERIMENTS

        design = (ROOT / "DESIGN.md").read_text()
        section = design[design.index("## 4."):design.index("## 5.")]
        for entry in EXPERIMENTS:
            assert f"`{entry.name}`" in section, entry.name

    def test_every_committed_table_is_producible(self):
        """Each ``results/*.txt`` is the table of some (entry, dataset) of
        the registry; ``bench_deadline.py`` owns the one exception."""
        from repro.bench import EXPERIMENTS
        from repro.bench.registry import stem

        producible = {
            f"{stem(entry.name, dataset)}.txt"
            for entry in EXPERIMENTS for dataset in entry.runs()
        }
        committed = {path.name for path in (ROOT / "results").glob("*.txt")}
        assert committed - {"deadline_cancellation.txt"} <= producible


class TestApiReferenceGenerator:
    def test_generator_runs_and_covers_modules(self, tmp_path, monkeypatch):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "gen_api_docs", ROOT / "scripts" / "gen_api_docs.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(module, "OUTPUT", tmp_path / "api.md")
        module.main()
        api = (tmp_path / "api.md").read_text()
        for name in ("repro.index.nbindex", "repro.ged.star",
                     "repro.core.greedy", "repro.baselines.disc",
                     "repro.datasets.dud", "repro.metricspace.vectors"):
            assert f"## `{name}`" in api, name
        assert " at 0x" not in api  # no address-bearing reprs
        # A stale committed reference fails here: regenerate with
        # ``python scripts/gen_api_docs.py``.
        assert (ROOT / "docs" / "api.md").read_text() == api


class TestReportBuilder:
    def test_builds_report_from_artifacts(self, tmp_path, monkeypatch):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "build_report", ROOT / "scripts" / "build_report.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig2a_disc_growth_dud.txt").write_text(
            "== fig2a ==\nnotes [scale: smoke]\nrows\n"
        )
        (results / "custom_extra.txt").write_text("== custom ==\n")
        monkeypatch.setattr(module, "RESULTS", results)
        assert module.main() == 0
        report = (results / "REPORT.md").read_text()
        assert "Fig. 2(a)" in report
        assert "REPRO_BENCH_SCALE=smoke" in report
        assert "== fig2a ==" in report
        assert "Other artifacts" in report

    def test_fails_cleanly_without_results(self, tmp_path, monkeypatch, capsys):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "build_report2", ROOT / "scripts" / "build_report.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(module, "RESULTS", tmp_path / "missing")
        assert module.main() == 1
