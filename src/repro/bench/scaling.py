"""Scalability experiment drivers — Figs. 2(b), 5(i–k), 6(b–l) — and the
design-choice ablations DESIGN.md calls out.

Query-time comparisons follow the paper's setup (Sec. 8.2): the engines
are NB-Index, Algorithm 1 over a C-tree, Greedy-DisC over an M-tree
(stopped at size k), DIV's div-cut fed by C-tree range queries, and —
for the Fig. 5(i) inset — greedy over a fully precomputed distance matrix.
Index construction happens offline and is excluded from query timings,
exactly as in the paper.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.disc import disc_greedy
from repro.baselines.div import div_topk
from repro.bench.harness import BenchContext, ExperimentResult, timed_call
from repro.core.greedy import baseline_greedy
from repro.datasets import GENERATORS
from repro.ged.metric import pairwise_matrix
from repro.graphs import quartile_relevance
from repro.index import NBIndex
from repro.index.fpr import empirical_fpr

DEFAULT_K = 10


# ---------------------------------------------------------------------------
# Engine runners: one timed top-k query each, cold — on a fresh structure
# (built offline, untimed) whose pair cache holds no earlier query's
# distances.  Each returns (wall seconds, exact distance computations) —
# the second is the paper's cost model and, unlike the first, repeats
# exactly.
# ---------------------------------------------------------------------------
def run_nbindex(ctx: BenchContext, q, theta: float, k: int):
    index = ctx.build_index()
    result, seconds = timed_call(index.query, q, theta, k)
    return seconds, result.stats.distance_calls


def _tree_query(tree, fn, ctx: BenchContext, q, theta: float, **kwargs):
    """``fn`` over ``tree``'s range queries; calls are the tree's own count
    (the greedy on top evaluates no distance itself)."""
    before = tree.stats()["distance_calls"]
    _, seconds = timed_call(
        fn, ctx.database, ctx.distance, q, theta,
        range_query=tree.range_query, **kwargs,
    )
    return seconds, tree.stats()["distance_calls"] - before


def run_ctree_greedy(ctx: BenchContext, q, theta: float, k: int):
    return _tree_query(ctx.build_ctree(), baseline_greedy, ctx, q, theta, k=k)


def run_disc(ctx: BenchContext, q, theta: float, k: int):
    return _tree_query(
        ctx.build_mtree(), disc_greedy, ctx, q, theta, stop_at_k=k
    )


def run_div(ctx: BenchContext, q, theta: float, k: int):
    return _tree_query(ctx.build_ctree(), div_topk, ctx, q, theta, k=k)


ENGINES = {
    "nbindex": run_nbindex,
    "ctree_greedy": run_ctree_greedy,
    "disc": run_disc,
    "div": run_div,
}


def engine_row(ctx: BenchContext, q, theta: float, k: int,
               engines=tuple(ENGINES)) -> dict:
    """One table row: each engine's seconds and exact calls for (θ, k)."""
    row = {}
    for name in engines:
        row[f"{name}_s"], row[f"{name}_calls"] = ENGINES[name](ctx, q, theta, k)
    return row


# ---------------------------------------------------------------------------
# Fig. 2(b): the unindexed/NN-indexed baseline does not scale.
# ---------------------------------------------------------------------------
def fig2b_baseline_scaling(
    dataset: str,
    sizes,
    k: int = DEFAULT_K,
    seed: int = 7,
) -> ExperimentResult:
    rows = []
    for size in sizes:
        ctx = BenchContext.create(dataset, num_graphs=size, seed=seed)
        q = ctx.relevance()
        plain, plain_s = timed_call(
            baseline_greedy, ctx.database, ctx.fresh_engine(), q, ctx.theta, k,
        )
        row = {"size": size, "plain_greedy_s": plain_s,
               "plain_greedy_calls": plain.stats.distance_calls}
        row["ctree_greedy_s"], row["ctree_greedy_calls"] = run_ctree_greedy(
            ctx, q, ctx.theta, k
        )
        row["mtree_greedy_s"], row["mtree_greedy_calls"] = _tree_query(
            ctx.build_mtree(), baseline_greedy, ctx, q, ctx.theta, k=k
        )
        rows.append(row)
    return ExperimentResult.from_rows(
        f"fig2b_baseline_scaling_{dataset}", rows,
        notes=(
            "Paper Fig. 2(b): Algorithm 1 over NN-indexes (C-tree, DisC's "
            "M-tree) grows superlinearly — >35 min at 5K graphs in the "
            "paper's setting; the shape, not the absolute scale, is the "
            "reproduced claim."
        ),
    )


# ---------------------------------------------------------------------------
# Figs. 5(i-k): query time vs theta, per dataset; dist-matrix inset.
# ---------------------------------------------------------------------------
def fig5ik_time_vs_theta(
    ctx: BenchContext,
    theta_factors=(0.6, 1.0, 1.8),
    k: int = DEFAULT_K,
) -> ExperimentResult:
    """The distance-matrix inset is Fig. 5(i)'s alone, so only DUD gets it."""
    q = ctx.relevance()
    include_matrix = ctx.name == "dud"
    if include_matrix:
        ctx.matrix  # built offline, before any timing
    rows = []
    for factor in theta_factors:
        theta = ctx.theta * factor
        row = {"theta": theta, **engine_row(ctx, q, theta, k)}
        if include_matrix:
            row["distmatrix_s"] = timed_call(ctx.matrix.greedy, q, theta, k)[1]
        rows.append(row)
    return ExperimentResult.from_rows(
        f"fig5ik_time_vs_theta_{ctx.name}", rows,
        notes=(
            "Paper Figs. 5(i-k): NB-Index up to 2 orders of magnitude "
            "faster than DisC/C-tree/DIV; bell-shaped NB curve (Theorem 6 "
            "rules small theta, Theorems 7-8 large theta); the distance "
            "matrix inset is the best-case query-time comparator."
        ),
    )


# ---------------------------------------------------------------------------
# Figs. 6(b-d): query time vs dataset size.
# ---------------------------------------------------------------------------
def fig6bd_time_vs_size(
    dataset: str,
    sizes,
    k: int = DEFAULT_K,
    seed: int = 7,
) -> ExperimentResult:
    rows = []
    for size in sizes:
        ctx = BenchContext.create(dataset, num_graphs=size, seed=seed)
        rows.append({
            "size": size, **engine_row(ctx, ctx.relevance(), ctx.theta, k),
        })
    return ExperimentResult.from_rows(
        f"fig6bd_time_vs_size_{dataset}", rows,
        notes=(
            "Paper Figs. 6(b-d): NB-Index more than an order of magnitude "
            "faster and with a flatter growth rate than DisC/C-tree/DIV."
        ),
    )


# ---------------------------------------------------------------------------
# Figs. 6(e-g): query time vs k.
# ---------------------------------------------------------------------------
def fig6eg_time_vs_k(
    ctx: BenchContext,
    ks=(5, 10, 25),
) -> ExperimentResult:
    q = ctx.relevance()
    rows = [{"k": k, **engine_row(ctx, q, ctx.theta, k)} for k in ks]
    return ExperimentResult.from_rows(
        f"fig6eg_time_vs_k_{ctx.name}", rows,
        notes=(
            "Paper Figs. 6(e-g): NB-Index grows slowly with k; DIV is "
            "nearly flat (its per-k work is feature-space only after the "
            "diversity graph is built)."
        ),
    )


# ---------------------------------------------------------------------------
# Fig. 6(h): query time vs feature dimensionality (DUD).
# ---------------------------------------------------------------------------
def fig6h_time_vs_dims(
    ctx: BenchContext,
    dims_list=(1, 5, 10),
    k: int = DEFAULT_K,
) -> ExperimentResult:
    rng = np.random.default_rng(ctx.seed)
    rows = []
    for d in dims_list:
        dims = sorted(
            int(i) for i in rng.choice(ctx.database.num_features, size=d,
                                       replace=False)
        )
        q = ctx.relevance(dims=dims)
        rows.append({"dims": d, **engine_row(
            ctx, q, ctx.theta, k, ("nbindex", "ctree_greedy")
        )})
    return ExperimentResult.from_rows(
        f"fig6h_time_vs_dims_{ctx.name}", rows,
        notes=(
            "Paper Fig. 6(h): nearly flat — feature-space work is "
            "negligible next to structural distance computation; variation "
            "tracks feature/structure correlation."
        ),
    )


# ---------------------------------------------------------------------------
# Figs. 6(i-j): interactive zoom (theta refinement).
# ---------------------------------------------------------------------------
ZOOM_COLUMNS = ["nb_refine_avg_s", "nb_refine_avg_calls",
                "ctree_recompute_avg_s", "ctree_recompute_avg_calls"]


def _zoom_row(ctx: BenchContext, k: int, rounds: int) -> dict:
    """±10% θ refinements: NB session reuse vs recomputation from scratch
    (the DisC/C-tree behaviour the paper contrasts against)."""
    q = ctx.relevance()
    session = ctx.nbindex.session(q)
    session.query(ctx.theta, k)  # initial query, not counted
    rng = np.random.default_rng(ctx.seed)
    theta = ctx.theta
    samples = []
    for _ in range(rounds):
        theta *= 1.1 if rng.random() < 0.5 else 0.9
        result, seconds = timed_call(session.query, theta, k)
        samples.append((seconds, result.stats.distance_calls,
                        *run_ctree_greedy(ctx, q, theta, k)))
    return dict(zip(ZOOM_COLUMNS, np.mean(samples, axis=0).tolist()))


def fig6i_zoom(
    contexts: list[BenchContext],
    k: int = DEFAULT_K,
    rounds: int = 4,
) -> ExperimentResult:
    return ExperimentResult.from_rows(
        name="fig6i_zoom",
        rows=[{"dataset": ctx.name, **_zoom_row(ctx, k, rounds)}
              for ctx in contexts],
        notes=(
            "Paper Fig. 6(i): NB-Index handles ±10% theta refinements in "
            "seconds (initialization phase is reused); DisC/C-tree must "
            "recompute neighborhoods from scratch (up to 160s in the paper)."
        ),
    )


def fig6j_zoom_scaling(
    dataset: str,
    sizes,
    k: int = DEFAULT_K,
    rounds: int = 3,
    seed: int = 7,
) -> ExperimentResult:
    rows = []
    for size in sizes:
        ctx = BenchContext.create(dataset, num_graphs=size, seed=seed)
        rows.append({"size": size, **_zoom_row(ctx, k, rounds)})
    return ExperimentResult.from_rows(
        f"fig6j_zoom_scaling_{dataset}", rows,
        notes="Paper Fig. 6(j): refinement time grows much slower for NB-Index.",
    )


# ---------------------------------------------------------------------------
# Figs. 6(k-l): index construction cost and memory.
# ---------------------------------------------------------------------------
def fig6k_index_build(
    dataset: str,
    sizes,
    seed: int = 7,
) -> ExperimentResult:
    rows = []
    for size in sizes:
        ctx = BenchContext.create(dataset, num_graphs=size, seed=seed)
        index = ctx.nbindex
        build_calls = index.stats()["distance_calls"]
        _, matrix_seconds = timed_call(
            pairwise_matrix, ctx.database.graphs, ctx.distance
        )
        all_pairs = size * (size - 1) // 2
        rows.append({
            "size": size,
            "nb_build_s": index.build_seconds,
            "nb_distance_calls": build_calls,
            "matrix_build_s": matrix_seconds,
            "matrix_distance_calls": all_pairs,
            "calls_fraction": build_calls / all_pairs,
        })
    return ExperimentResult.from_rows(
        f"fig6k_index_build_{dataset}", rows,
        notes=(
            "Paper Fig. 6(k): NB-Index builds orders of magnitude faster "
            "than the full distance matrix; VP pruning leaves only a small "
            "fraction of candidate pairs needing exact distances."
        ),
    )


def fig6l_index_memory(
    dataset: str,
    sizes,
    seed: int = 7,
) -> ExperimentResult:
    rows = []
    for size in sizes:
        ctx = BenchContext.create(dataset, num_graphs=size, seed=seed)
        stats = ctx.nbindex.stats()
        rows.append({
            "size": size,
            "nb_index_bytes": stats["memory_bytes"],
            "coverage_bytes": stats["coverage_bytes"],
            "matrix_bytes": size * size * 8,
        })
    return ExperimentResult.from_rows(
        f"fig6l_index_memory_{dataset}", rows,
        notes=(
            "Paper Fig. 6(l): NB-Index memory grows linearly (<300MB for "
            "all of DUD); the distance matrix grows quadratically. "
            "coverage_bytes is the worst-case bitset coverage a query "
            "session materializes: one row per relevant member plus the "
            "covered row, at |L_q| = n."
        ),
    )


# ---------------------------------------------------------------------------
# Ablations (beyond the paper; design choices from DESIGN.md §4).
# ---------------------------------------------------------------------------
def ablation_vp_count(
    ctx: BenchContext,
    vp_counts=(2, 8, 20),
    k: int = DEFAULT_K,
    num_pairs: int = 800,
) -> ExperimentResult:
    """FPR and query time as |V| grows — the Sec. 6.2.1 trade-off."""
    q = ctx.relevance()
    rows = []
    for count in vp_counts:
        count = min(count, len(ctx.database))
        index = ctx.build_index(num_vantage_points=count)
        fpr = empirical_fpr(
            index.embedding, ctx.distance, ctx.database.graphs, ctx.theta,
            num_pairs=num_pairs, rng=ctx.seed,
        )
        _, seconds = timed_call(index.query, q, ctx.theta, k)
        rows.append({
            "num_vps": count,
            "observed_fpr": fpr,
            "query_s": seconds,
            "build_s": index.build_seconds,
        })
    return ExperimentResult.from_rows(
        f"ablation_vp_count_{ctx.name}", rows,
        notes="More VPs: lower FPR, higher embedding cost — elbow expected.",
    )


def ablation_insert(
    dataset: str,
    base_size: int = 150,
    num_inserts: int = 40,
    k: int = DEFAULT_K,
    seed: int = 7,
) -> ExperimentResult:
    """Incremental insertion vs full rebuild.

    Builds an index on ``base_size`` graphs, inserts ``num_inserts`` more
    one at a time, and compares query time and work against an index
    rebuilt from scratch over the same ``base_size + num_inserts`` graphs.
    An insert embeds one graph; a rebuild also draws new vantage points.
    """
    generator = GENERATORS[dataset]
    # The generators draw graphs sequentially from one stream, so the
    # larger database has the smaller one as a prefix.
    full = generator(num_graphs=base_size + num_inserts, seed=seed)
    base = full.subset(range(base_size))
    ctx = BenchContext.create(dataset, num_graphs=base_size, seed=seed)

    params = dict(num_vantage_points=ctx.num_vantage_points, seed=seed)
    incremental = NBIndex.build(base, ctx.distance, **params)
    insert_started = time.perf_counter()
    for position in range(base_size, base_size + num_inserts):
        incremental.insert(full[position], full.feature_vector(position))
    insert_seconds = time.perf_counter() - insert_started

    rebuilt = NBIndex.build(full, ctx.distance, **params)

    rows = []
    for name, index in (("incremental", incremental), ("rebuilt", rebuilt)):
        q = quartile_relevance(index.database)
        result, seconds = timed_call(index.query, q, ctx.theta, k)
        rows.append({
            "index": name,
            "query_s": seconds,
            "pi": result.pi,
            "distance_calls": result.stats.distance_calls,
            "maintenance_s": insert_seconds if name == "incremental"
            else rebuilt.build_seconds,
        })
    return ExperimentResult.from_rows(
        f"ablation_insert_{dataset}", rows,
        notes=(
            f"{num_inserts} inserts into a {base_size}-graph index vs full "
            "rebuild: answers stay exact (equal pi) and inserts are cheaper "
            "than rebuilding."
        ),
    )


def ablation_bounds(
    ctx: BenchContext,
    k: int = DEFAULT_K,
) -> ExperimentResult:
    """Bound components: full engine vs trivial pi-hat (VO candidates
    only).

    Each variant runs on a freshly built index so none benefits from a
    distance cache warmed by an earlier variant.
    """
    q = ctx.relevance()
    rows = []
    for name in ("full", "vo_only"):
        index = ctx.build_index()
        session = index.session(q)
        if name == "vo_only":
            # π̂ = |L_q| for every member — the trivial bound — seeded into
            # the session's per-θ column cache before the first query.
            state = index._member_state(session)
            state._pi_hat_columns[ctx.theta] = np.full(
                state.relevant_global.size, state.relevant_global.size
            )
        result, seconds = timed_call(lambda: session.query(ctx.theta, k))
        rows.append({
            "variant": name,
            "query_s": seconds,
            "exact_neighborhoods": result.stats.exact_neighborhoods,
            "distance_calls": result.stats.distance_calls,
            "pi": result.pi,
        })
    return ExperimentResult.from_rows(
        f"ablation_bounds_{ctx.name}", rows,
        notes=(
            "Both variants return equal-quality greedy answers; the bounds "
            "only change how much work finds them."
        ),
    )
