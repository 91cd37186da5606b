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


class TestQueryLoadFailures:
    """A file that cannot serve this database is one line on stderr and
    exit code 2, never a traceback."""

    @pytest.fixture
    def index_path(self, db_path, tmp_path):
        path = tmp_path / "index.npz"
        assert main([
            "build-index", str(db_path), "--output", str(path),
            "--vantage-points", "5",
        ]) == 0
        return path

    def _refused(self, capsys, db_path, index, match):
        capsys.readouterr()
        assert main([
            "query", str(db_path), "--k", "3", "--theta", "8",
            "--index", str(index),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro query: ")
        assert match in lines[0]

    def test_a_shard_file_as_the_index(self, db_path, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert main([
            "shard-build", str(db_path), "--output", str(bundle),
            "--shards", "2", "--vantage-points", "5",
        ]) == 0
        self._refused(
            capsys, db_path, bundle / "shard-000.npz", "a shard artifact"
        )

    def test_an_index_of_another_database(self, index_path, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        assert main([
            "generate", "dud", "--num-graphs", "60", "--seed", "4",
            "--output", str(other),
        ]) == 0
        self._refused(capsys, other, index_path, "fingerprint")

    def test_a_truncated_index(self, db_path, index_path, capsys):
        index_path.write_bytes(index_path.read_bytes()[:-40])
        self._refused(capsys, db_path, index_path, str(index_path))


#: One missing input per file-taking subcommand (and per extra file flag
#: whose loader differs): ``{db}`` is a real database, ``{tmp}`` an empty
#: directory.
LOAD_FAILURES = {
    "stats": ["stats", "{tmp}/missing.jsonl"],
    "build-index": [
        "build-index", "{tmp}/missing.jsonl", "--output", "{tmp}/x.npz",
    ],
    "shard-build": [
        "shard-build", "{tmp}/missing.jsonl", "--output", "{tmp}/b",
        "--shards", "2",
    ],
    "query": ["query", "{tmp}/missing.jsonl", "--theta", "8"],
    "query --index": [
        "query", "{db}", "--theta", "8", "--index", "{tmp}/missing.npz",
    ],
    "serve": ["serve", "{tmp}/missing.jsonl"],
    "serve --replicas": [
        "serve", "{db}", "--shards", "{tmp}/missing", "--replicas", "2",
    ],
    "checkpoint": [
        "checkpoint", "{tmp}/missing.jsonl", "--journal", "{tmp}/j.journal",
    ],
    "checkpoint --journal": [
        "checkpoint", "{db}", "--journal", "{tmp}/missing.journal",
    ],
}


class TestLoadFailures:
    """A missing or unreadable input file is one ``repro <command>: …``
    line on stderr and exit code 2, for every subcommand."""

    @pytest.mark.parametrize("case", sorted(LOAD_FAILURES))
    def test_one_line_and_exit_2(self, case, db_path, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        argv = [
            arg.format(db=db_path, tmp=empty) for arg in LOAD_FAILURES[case]
        ]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith(f"repro {argv[0]}: ")
        assert "missing" in lines[0]

    def test_a_missing_journal_is_refused_not_made(self, db_path, tmp_path):
        """``repro checkpoint`` opens no journal it would have to create:
        an append-mode open would write a fresh header."""
        empty = tmp_path / "empty"
        empty.mkdir()
        journal = empty / "missing.journal"
        assert main(["checkpoint", str(db_path), "--journal", str(journal)]) == 2
        assert list(empty.iterdir()) == []

    def test_every_database_taking_subcommand_is_listed(self):
        import argparse

        from repro.cli import build_parser

        subcommands = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices
        takes_database = {
            name for name, parser in subcommands.items()
            if any(action.dest == "database" and not action.option_strings
                   for action in parser._actions)
        }
        assert takes_database == {case.split()[0] for case in LOAD_FAILURES}


def test_serve_replicas_accepts_a_bundle_directory(
    db_path, tmp_path, capsys, monkeypatch
):
    """``--shards`` takes the bundle directory with ``--replicas`` too, as
    it does without them and in ``repro query``."""
    import io
    import json
    import sys

    bundle = tmp_path / "bundle"
    assert main([
        "shard-build", str(db_path), "--output", str(bundle),
        "--shards", "2", "--vantage-points", "5",
    ]) == 0
    request = json.dumps({"id": 1, "theta": 8.0, "k": 3}) + "\n"
    answers = []
    for replicas in ([], ["--replicas", "2"]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(request))
        capsys.readouterr()
        assert main(["serve", str(db_path), "--shards", str(bundle),
                     *replicas]) == 0
        response = json.loads(capsys.readouterr().out.splitlines()[0])
        assert response["ok"]
        answers.append(response["result"]["answer"])
    assert answers[0] == answers[1]


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
    QUERY = ["--k", "2", "--theta", "8", "--vantage-points", "4"]

    def test_generous_deadline_answers_without_footer(self, db_path, capsys):
        assert main(["query", str(db_path), *self.QUERY]) == 0
        want = capsys.readouterr().out
        assert main([
            "query", str(db_path), *self.QUERY, "--deadline-ms", "60000",
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out == want and "certified:" in want
        assert "deadline" not in captured.out + captured.err

    def test_the_budget_starts_after_the_build(self, db_path, monkeypatch):
        """``--deadline-ms`` bounds the query, not the index build before it."""
        import time

        from repro.index import NBIndex

        build = NBIndex.build.__func__

        def slow_build(cls, *args, **kwargs):
            time.sleep(0.3)
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(NBIndex, "build", classmethod(slow_build))
        assert main([
            "query", str(db_path), *self.QUERY, "--deadline-ms", "250",
        ]) == 0

    def test_expired_deadline_exits_1_with_one_line(self, db_path, capsys):
        assert main([
            "query", str(db_path), *self.QUERY, "--deadline-ms", "0",
        ]) == 1
        captured = capsys.readouterr()
        assert "rank" not in captured.out
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro query: deadline")
        assert "Traceback" not in captured.err


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
