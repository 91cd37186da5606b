"""Distance-function ablation: how good a GED surrogate is the star
distance?

DESIGN.md §3.2 substitutes the polynomial star edit distance for exact GED
at benchmark scale.  This driver quantifies the substitution on molecule
graphs small enough for exact A*: rank correlation with exact GED, bound
tightness, metric validity, and cost per call — the evidence behind "the
substitution preserves the relevant behaviour" (neighborhood structure
depends on distance *ranking*, which is what the correlation captures).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.stats import spearmanr

from repro.bench.harness import ExperimentResult
from repro.datasets import dud_like
from repro.ged import (
    BeamGED,
    BipartiteGED,
    ExactGED,
    StarDistance,
    check_metric_axioms,
)
from repro.graphs import GraphDatabase, LabeledGraph
from repro.utils.rng import ensure_rng


def _small_molecule_database(num_graphs: int, seed) -> GraphDatabase:
    """Molecule-like graphs truncated to exact-GED-friendly sizes."""
    source = dud_like(num_graphs=num_graphs * 3, seed=seed)
    graphs = [g for g in source if g.num_nodes <= 9][:num_graphs]
    if len(graphs) < num_graphs:
        # Fall back to truncating larger molecules to their first atoms.
        for g in source:
            if len(graphs) >= num_graphs:
                break
            if g.num_nodes > 9:
                keep = set(range(9))
                labels = [g.node_label(v) for v in sorted(keep)]
                edges = [
                    (u, v, label) for u, v, label in g.edges()
                    if u in keep and v in keep
                ]
                graphs.append(LabeledGraph(labels, edges))
    return GraphDatabase(graphs, np.ones((len(graphs), 1)))


def ablation_distance_quality(
    num_graphs: int = 20,
    num_pairs: int = 60,
    seed: int = 7,
) -> ExperimentResult:
    """Compare every distance in the library against exact GED."""
    rng = ensure_rng(seed)
    database = _small_molecule_database(num_graphs, seed)
    n = len(database)
    pairs = []
    while len(pairs) < num_pairs:
        i, j = int(rng.integers(n)), int(rng.integers(n))
        if i != j:
            pairs.append((i, j))

    candidates = {
        "exact_astar": ExactGED(),
        "star_metric": StarDistance(),
        "bipartite_ub": BipartiteGED(),
        "beam8_ub": BeamGED(beam_width=8),
    }
    values: dict[str, list[float]] = {name: [] for name in candidates}
    seconds: dict[str, float] = {}
    for name, distance in candidates.items():
        started = time.perf_counter()
        for i, j in pairs:
            values[name].append(float(distance(database[i], database[j])))
        seconds[name] = time.perf_counter() - started

    exact_values = np.asarray(values["exact_astar"])
    # The axiom check is quadratic in exact-GED calls: 6 graphs at most.
    sample = list(database)[:min(6, num_graphs // 2)]
    rows = []
    for name in candidates:
        observed = np.asarray(values[name])
        correlation = float(spearmanr(exact_values, observed).statistic)
        is_upper = bool((observed >= exact_values - 1e-9).all())
        is_metric = not check_metric_axioms(sample, candidates[name])
        rows.append({
            "distance": name,
            "spearman_vs_exact": correlation,
            "mean_value": float(observed.mean()),
            "always_upper_bound": is_upper,
            "metric_on_sample": is_metric,
            "ms_per_call": seconds[name] / len(pairs) * 1000,
        })
    return ExperimentResult.from_rows(
        "ablation_distance_quality", rows,
        notes=(
            "Justifies DESIGN.md's star-distance substitution: high rank "
            "correlation with exact GED at a tiny fraction of the cost, "
            "with metric axioms intact (unlike the upper-bound estimators)."
        ),
    )
