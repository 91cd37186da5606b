"""Every table and figure of the paper's evaluation, from the one registry.

Each case runs one (experiment, dataset) of ``repro.bench.EXPERIMENTS``
through ``run_experiment`` — the same call ``repro experiment`` makes — so
it writes the same ``results/`` table and fails on the same broken claim::

    pytest benchmarks/bench_paper.py --benchmark-only [-k fig6k]
"""

import pytest

from repro.bench import EXPERIMENTS, run_experiment
from repro.bench.registry import stem

CASES = [(entry.name, dataset)
         for entry in EXPERIMENTS for dataset in entry.runs()]


@pytest.mark.parametrize(
    "name,dataset", CASES, ids=[stem(*case) for case in CASES]
)
def test_paper_experiment(benchmark, name, dataset):
    # A driver is a full parameter sweep: one round is the meaningful unit.
    benchmark.pedantic(run_experiment, args=(name, dataset), rounds=1,
                       iterations=1)
