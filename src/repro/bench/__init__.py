"""Benchmark harness: the experiment registry, per-table/figure drivers
and printers."""

from repro.bench.harness import (
    SCALES,
    BenchContext,
    ExperimentResult,
    bench_scale,
    dataset_size,
    timed_call,
    write_result,
)
from repro.bench.printers import format_table, print_and_save
from repro.bench.registry import EXPERIMENTS, run_experiment

__all__ = [
    "BenchContext",
    "EXPERIMENTS",
    "ExperimentResult",
    "SCALES",
    "bench_scale",
    "dataset_size",
    "timed_call",
    "write_result",
    "format_table",
    "print_and_save",
    "run_experiment",
]
