"""Self-test of the end-to-end benchmark at smoke scale (n = 300).

Runs ``run.py --smoke --trace`` — every workload untraced, then traced,
each in a fresh interpreter — and validates the result against
``BENCHMARK.json``.  Timing-free: it asserts presence, naming and
correctness, never a latency.  Lives beside the benchmark (tier-1
``testpaths`` is ``tests/``), run it with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(out.read_text()), completed.stdout


def test_benchmark_json_meets_the_contract(benchmark_json):
    assert set(benchmark_json) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert benchmark_json["paths"] == ["benchmarks/e2e"]
    assert 1 <= benchmark_json["run_seconds"] <= 60
    assert 2 <= len(benchmark_json["workloads"]) <= 8
    assert 1 <= len(benchmark_json["end_to_end"]) <= 16
    assert 1 <= len(benchmark_json["per_layer"]) <= 128
    names = []
    for workload in benchmark_json["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in benchmark_json["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in benchmark_json["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in benchmark_json["end_to_end"] + benchmark_json["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names), "a name is used once"
    setup = [m for m in benchmark_json["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_every_declared_metric_is_reported(benchmark_json, smoke_result):
    document, _ = smoke_result
    for workload in benchmark_json["workloads"]:
        result = document["workloads"][workload["name"]]
        for metric in benchmark_json["end_to_end"]:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0, (workload["name"], metric["name"])
        for metric in benchmark_json["per_layer"]:
            entry = result["per_layer"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] >= 0 or metric["name"] in (
                # differences of two measurements; may dip below zero
                "obs.trace_overhead_frac", "service.overhead_ms",
            ), (workload["name"], metric["name"])
        assert Path(ROOT / result["trace_file"]).exists()


def test_no_failed_operations(benchmark_json, smoke_result):
    document, _ = smoke_result
    for workload in benchmark_json["workloads"]:
        result = document["workloads"][workload["name"]]
        assert result["attempted"] >= 1
        assert result["failed_ops_frac"] == 0, result["failures"]
        assert result["correct"] and result["traced_run"]["correct"]


def test_each_layer_works_where_the_map_says(smoke_result):
    """The README's layer map, as assertions: a layer a workload is said
    to leave idle records no self time there, one it exercises does."""
    document, _ = smoke_result
    layers = {
        name: result["per_layer"]
        for name, result in document["workloads"].items()
    }

    def self_s(workload, layer):
        return layers[workload][f"{layer}.self_s"]["value"]

    for layer in ("shard", "replica", "service", "delta", "durability"):
        assert self_s("dud_inproc", layer) == 0, layer
    for layer in ("ged", "engine", "cascade", "index", "bitset"):
        assert self_s("dud_inproc", layer) > 0, layer
    assert self_s("vec_sharded", "ged") == 0
    assert self_s("vec_sharded", "shard") > 0
    for layer in ("replica", "service", "shard", "ged"):
        assert self_s("dud_served", layer) > 0, layer
    assert self_s("dud_served", "delta") == 0
    for layer in ("delta", "durability", "shard"):
        assert self_s("dud_mutable", layer) > 0, layer
    assert self_s("dud_mutable", "replica") == 0
    for workload in ("dud_inproc", "vec_sharded", "dud_mutable"):
        ratio = layers[workload]["obs.self_sum_over_wall"]["value"]
        assert 0.95 <= ratio <= 1.05, (workload, ratio)


def test_metrics_are_printed_with_units(benchmark_json, smoke_result):
    _, stdout = smoke_result
    lines = stdout.splitlines()
    for workload in benchmark_json["workloads"]:
        for metric in benchmark_json["end_to_end"]:
            prefix = f"{workload['name']} {metric['name']} "
            assert any(
                line.startswith(prefix) and line.endswith(" " + metric["unit"])
                for line in lines
            ), prefix
