"""CLI end-to-end: generate → stats → build-index → query → experiment."""

import pytest

from repro.cli import main


@pytest.fixture
def db_path(tmp_path):
    path = tmp_path / "db.jsonl"
    code = main([
        "generate", "dud", "--num-graphs", "60", "--seed", "3",
        "--output", str(path),
    ])
    assert code == 0
    return path


class TestGenerateAndStats:
    def test_generate_writes_file(self, tmp_path, capsys):
        path = tmp_path / "fresh.jsonl"
        assert main([
            "generate", "dud", "--num-graphs", "30", "--seed", "1",
            "--output", str(path),
        ]) == 0
        assert path.exists()
        assert "30 graphs" in capsys.readouterr().out

    def test_stats(self, db_path, capsys):
        assert main(["stats", str(db_path), "--num-pairs", "200"]) == 0
        out = capsys.readouterr().out
        assert "graphs:   60" in out
        assert "distance: mu=" in out

    def test_generate_all_datasets(self, tmp_path):
        for name in ("dblp", "amazon"):
            path = tmp_path / f"{name}.jsonl"
            assert main([
                "generate", name, "--num-graphs", "25", "--seed", "1",
                "--output", str(path),
            ]) == 0
            assert path.exists()


class TestIndexAndQuery:
    def test_build_index_and_query_with_it(self, db_path, tmp_path, capsys):
        index_path = tmp_path / "index.npz"
        assert main([
            "build-index", str(db_path), "--output", str(index_path),
            "--vantage-points", "5",
        ]) == 0
        assert index_path.exists()
        assert main([
            "query", str(db_path), "--k", "3", "--index", str(index_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "pi(A) =" in out
        assert "calibrated theta" in out

    def test_query_without_prebuilt_index(self, db_path, capsys):
        assert main([
            "query", str(db_path), "--k", "2", "--theta", "8",
            "--vantage-points", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "rank" in out

    def test_query_greedy_method(self, db_path, capsys):
        assert main([
            "query", str(db_path), "--k", "2", "--method", "greedy",
            "--dims", "0", "1",
        ]) == 0
        assert "pi(A) =" in capsys.readouterr().out


@pytest.fixture
def smoke_results(monkeypatch, tmp_path):
    """Run experiments at the smoke scale, writing tables under tmp."""
    import repro.bench.harness as harness

    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
    monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
    return tmp_path


class TestExperiment:
    def test_unknown_experiment_lists_available(self, capsys):
        code = main(["experiment", "not_a_real_one"])
        assert code == 2
        err = capsys.readouterr().err
        assert "fig2a_disc_growth" in err

    def test_runs_a_driver(self, capsys, smoke_results):
        code = main(["experiment", "fig2a_disc_growth", "--dataset", "dud"])
        assert code == 0
        assert "fig2a_disc_growth" in capsys.readouterr().out
        assert (smoke_results / "fig2a_disc_growth_dud.txt").exists()

    def test_undeclared_dataset_is_refused(self, capsys):
        assert main(["experiment", "fig2a_disc_growth", "--dataset", "dblp"]) == 2
        assert "runs on dud" in capsys.readouterr().err

    def test_bench_hotpath_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench-hotpath", "--sizes", "500"])
        assert excinfo.value.code == 2

    def test_hedge_ms_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "db.jsonl", "--shards", "m.json", "--replicas",
                  "2", "--hedge-ms", "50"])
        assert excinfo.value.code == 2
        assert "--hedge-ms" in capsys.readouterr().err

    def test_build_index_checkpoint_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["build-index", "db.jsonl", "--output", "i.npz",
                  "--checkpoint", "b.ckpt"])
        assert excinfo.value.code == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_breaker_cooldown_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "db.jsonl", "--index", "i.npz",
                  "--breaker-cooldown", "5"])
        assert excinfo.value.code == 2
        assert "--breaker-cooldown" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_query_metrics_json_and_trace(self, db_path, tmp_path, capsys):
        import json

        from repro import obs

        metrics_path = tmp_path / "query.metrics.json"
        assert main([
            "query", str(db_path), "--k", "2", "--theta", "8",
            "--vantage-points", "4",
            "--metrics", str(metrics_path), "--trace",
        ]) == 0
        assert not obs.enabled()  # the observation ends with the command
        out = capsys.readouterr().out
        assert "== observability report ==" in out
        assert "index.build" in out
        document = json.loads(metrics_path.read_text())
        assert document["schema"] == "repro.obs/v1"
        counters = document["metrics"]["counters"]
        assert counters["query.count"] == 1
        assert counters["ged.star.batch_pairs"] > 0
        span_names = {span["name"] for span in document["spans"]}
        assert {"index.build", "index.query"} <= span_names

    def test_build_index_metrics_prometheus(self, db_path, tmp_path):
        metrics_path = tmp_path / "build.prom"
        assert main([
            "build-index", str(db_path), "--output", str(tmp_path / "i.npz"),
            "--vantage-points", "4",
            "--metrics", str(metrics_path),
        ]) == 0
        text = metrics_path.read_text()
        assert "# TYPE repro_ged_star_batch_pairs counter" in text
        assert "repro_index_build_seconds_count 1" in text

    def test_env_var_enables_observability(self, db_path, monkeypatch, capsys):
        from repro import obs

        monkeypatch.setenv("REPRO_OBS", "1")
        try:
            assert main([
                "query", str(db_path), "--k", "2", "--theta", "8",
                "--vantage-points", "4",
            ]) == 0
            assert obs.enabled()
            assert obs.get_registry().snapshot()["counters"]["query.count"] == 1
        finally:
            obs.disable()

    def test_no_flags_keeps_observability_off(self, db_path, monkeypatch):
        from repro import obs

        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert main([
            "query", str(db_path), "--k", "2", "--theta", "8",
            "--vantage-points", "4",
        ]) == 0
        assert not obs.enabled()


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestExperimentAll:
    def test_all_flag_runs_set(self, capsys, monkeypatch, smoke_results):
        from repro.bench import registry

        # Trim the set to a fast pair for the test; the full list is data
        # (tests/test_experiment_drivers.py runs all of it).
        monkeypatch.setattr(registry, "EXPERIMENTS", tuple(
            registry.lookup(name)
            for name in ("fig2a_disc_growth", "fig6l_index_memory")
        ))
        code = main(["experiment", "--all"])
        assert code == 0
        out = capsys.readouterr().out
        assert "completed 2/2 experiments" in out

    def test_all_fails_on_a_broken_claim(self, capsys, monkeypatch, smoke_results):
        from dataclasses import replace

        from repro.bench import registry

        def refuted(result, full):
            registry.claim(False, "the paper said otherwise")

        monkeypatch.setattr(registry, "EXPERIMENTS", (
            replace(registry.lookup("fig2a_disc_growth"), check=refuted),
        ))
        assert main(["experiment", "--all"]) == 1
        captured = capsys.readouterr()
        assert "ClaimFailed: the paper said otherwise" in captured.err
        assert "completed 0/1 experiments" in captured.out
        # The table that broke its claim is still there to read.
        assert (smoke_results / "fig2a_disc_growth_dud.txt").exists()

    def test_missing_name_without_all(self, capsys):
        assert main(["experiment"]) == 2
        assert "provide a driver name" in capsys.readouterr().err

    def test_all_experiment_names_resolve(self):
        """``--all`` covers every driver: each ``fig* / table* / ablation*``
        callable of the driver modules is registered exactly once."""
        from repro.bench import EXPERIMENTS, distances, experiments, scaling

        drivers = [
            value
            for module in (experiments, scaling, distances)
            for name, value in vars(module).items()
            if name.startswith(("fig", "table", "ablation")) and callable(value)
        ]
        registered = [entry.driver for entry in EXPERIMENTS]
        assert sorted(d.__name__ for d in registered) == sorted(
            d.__name__ for d in drivers
        )
        assert set(registered) == set(drivers)


class TestResilienceFlags:
    def test_query_deadline_prints_footer(self, db_path, capsys):
        assert main([
            "query", str(db_path), "--k", "2", "--theta", "8",
            "--vantage-points", "4",
            "--deadline-ms", "60000",
        ]) == 0
        out = capsys.readouterr().out
        # Star distance never degrades (only exact GED does), so a generous
        # budget reports "met" — the footer is the contract under test.
        assert "deadline: met" in out


class TestServe:
    def test_serve_stdin_round_trip(self, db_path, tmp_path, capsys, monkeypatch):
        import io
        import json
        import sys

        index_path = tmp_path / "index.npz"
        assert main([
            "build-index", str(db_path), "--output", str(index_path),
            "--vantage-points", "4",
        ]) == 0
        requests = "\n".join([
            json.dumps({"id": 1, "theta": 8.0, "k": 2}),
            json.dumps({"id": 2, "op": "ping"}),
            "garbage",
        ]) + "\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(requests))
        metrics_path = tmp_path / "serve.metrics.json"
        assert main([
            "serve", str(db_path), "--index", str(index_path),
            "--deadline-ms", "60000", "--metrics", str(metrics_path),
        ]) == 0
        captured = capsys.readouterr()
        responses = [json.loads(ln) for ln in captured.out.splitlines()
                     if ln.strip().startswith("{")]
        assert [r["id"] for r in responses] == [1, 2, None]
        assert responses[0]["ok"] and responses[0]["result"]["answer"]
        assert responses[1]["result"]["pong"] is True
        assert responses[2]["error"]["code"] == "invalid_request"
        assert "drained" in captured.err
        document = json.loads(metrics_path.read_text())
        assert document["metrics"]["counters"]["service.admitted"] == 2

    def test_serve_without_index_builds_inline(self, db_path, monkeypatch, capsys):
        import io
        import json
        import sys

        monkeypatch.setattr(
            sys, "stdin",
            io.StringIO(json.dumps({"id": 1, "op": "stats"}) + "\n"),
        )
        assert main(["serve", str(db_path), "--concurrency", "1"]) == 0
        out = capsys.readouterr().out
        response = json.loads(out.splitlines()[0])
        assert response["result"]["index"]["num_graphs"] == 60


class TestModuleEntryPoint:
    def test_python_m_repro(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 0
        assert completed.stdout.strip()
