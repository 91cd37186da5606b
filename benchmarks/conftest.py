"""Shared benchmark fixtures.

``dud_ctx`` serves the micro-operation benchmarks; the paper's experiments
(``bench_paper.py``) build a fresh context per run, so a table's counts do
not depend on what ran before it.
"""

from __future__ import annotations

import pytest

from repro.bench import BenchContext


@pytest.fixture(scope="session")
def dud_ctx() -> BenchContext:
    return BenchContext.create("dud")


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment driver exactly once under pytest-benchmark.

    Experiment drivers are full parameter sweeps, not micro-operations;
    one round is the meaningful unit.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)
