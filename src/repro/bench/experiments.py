"""Experiment drivers: quality, distributions, FPR, and the qualitative
comparison — Figs. 2(a), 5(a–h), 7 and Table 4.

Each driver regenerates one table or figure of the paper as structured
rows (see DESIGN.md §4 for the full experiment index).  Scalability and
ablation drivers live in :mod:`repro.bench.scaling`.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.distances import sample_distances
from repro.analysis.metrics import evaluate_answers
from repro.baselines.disc import disc_greedy
from repro.baselines.div import div_topk
from repro.baselines.topk import answer_set_redundancy, traditional_top_k
from repro.bench.harness import BenchContext, ExperimentResult
from repro.core.greedy import baseline_greedy
from repro.datasets import dud_like
from repro.datasets.registry import calibrate_theta
from repro.ged.star import StarDistance
from repro.graphs import quartile_relevance
from repro.index.fpr import empirical_fpr, fpr_upper_bound_gaussian


def fig2a_disc_growth(
    ctx: BenchContext,
    relevant_quantiles=(0.9, 0.75, 0.5, 0.25),
) -> ExperimentResult:
    """Fig. 2(a): DisC answer-set size vs number of relevant objects.

    The paper's point: growth is near-linear and the compression ratio
    hovers around 3 — no budget control.
    """
    rows = []
    for quantile in relevant_quantiles:
        q = ctx.relevance(quantile=quantile)
        result = disc_greedy(ctx.database, ctx.fresh_engine(), q, ctx.theta)
        rows.append({
            "relevant": result.num_relevant,
            "answer_size": len(result.answer),
            "compression_ratio": result.compression_ratio,
        })
    rows.sort(key=lambda r: r["relevant"])
    return ExperimentResult.from_rows(
        f"fig2a_disc_growth_{ctx.name}", rows,
        notes=(
            "Paper: DisC answer grows ~linearly with |L_q|; average CR ≈ 3 "
            f"on DUD. Dataset: {ctx.name}, theta={ctx.theta:.1f}."
        ),
    )


def table4_quality(
    contexts: list[BenchContext],
    ks=(5, 10, 25),
) -> ExperimentResult:
    """Table 4: CR and π(A) for REP vs DIV(θ) vs DIV(2θ) per k, plus the
    DisC row (full covering answer)."""
    rows = []
    for ctx in contexts:
        q = ctx.relevance()
        theta = ctx.theta
        for k in ks:
            rep = baseline_greedy(ctx.database, ctx.fresh_engine(), q, theta, k)
            div1 = div_topk(ctx.database, ctx.fresh_engine(), q, theta, k, 1.0)
            div2 = div_topk(ctx.database, ctx.fresh_engine(), q, theta, k, 2.0)
            rows.append({
                "dataset": ctx.name,
                "k": k,
                "REP_CR": rep.compression_ratio,
                "REP_pi": rep.pi,
                "DIV(t)_CR": div1.compression_ratio,
                "DIV(t)_pi": div1.pi,
                "DIV(2t)_CR": div2.compression_ratio,
                "DIV(2t)_pi": div2.pi,
            })
        disc = disc_greedy(ctx.database, ctx.fresh_engine(), q, theta)
        rows.append({
            "dataset": ctx.name,
            "k": f"DisC({len(disc.answer)})",
            "REP_CR": None, "REP_pi": None,
            "DIV(t)_CR": None, "DIV(t)_pi": None,
            "DIV(2t)_CR": disc.compression_ratio,
            "DIV(2t)_pi": disc.pi,
        })
    return ExperimentResult.from_rows(
        "table4_quality", rows,
        notes=(
            "Paper Table 4: REP dominates DIV(θ) which dominates DIV(2θ) in "
            "both CR and π; DisC CR ≈ 2.8/1.8/2.5 (its row shows CR and π "
            "in the DIV(2t) columns, answer size in parentheses)."
        ),
    )


def fig5ab_distance_cdf(
    contexts: list[BenchContext],
    num_points: int = 12,
    num_pairs: int = 1500,
) -> ExperimentResult:
    """Figs. 5(a–b): cumulative pairwise-distance distributions, the basis
    for θ calibration and threshold placement."""
    rows = []
    for ctx in contexts:
        distribution = sample_distances(
            ctx.database, ctx.distance, num_pairs=num_pairs, rng=ctx.seed
        )
        thetas = np.linspace(0, distribution.diameter_estimate, num_points)
        cdf = distribution.cdf(thetas)
        for theta, value in zip(thetas, cdf):
            rows.append({
                "dataset": ctx.name,
                "theta": float(theta),
                "cdf": float(value),
            })
    return ExperimentResult.from_rows(
        "fig5ab_distance_cdf", rows,
        notes=(
            "Paper Figs. 5(a-b): DUD/DBLP CDFs climb early (theta=10 zone); "
            "Amazon's is stretched (theta=75). Our analogs reproduce the "
            "relative placement (see calibrated thetas)."
        ),
    )


def fig5ce_distance_hist(
    contexts: list[BenchContext],
    bins: int = 12,
    num_pairs: int = 1500,
) -> ExperimentResult:
    """Figs. 5(c–e): distance histograms plus the Gaussian moments used by
    the FPR bound (Eq. 11)."""
    rows = []
    for ctx in contexts:
        distribution = sample_distances(
            ctx.database, ctx.distance, num_pairs=num_pairs, rng=ctx.seed
        )
        centers, densities = distribution.histogram(bins=bins)
        for center, density in zip(centers, densities):
            rows.append({
                "dataset": ctx.name,
                "distance": float(center),
                "density": float(density),
                "mu": distribution.mean,
                "sigma": distribution.std,
            })
    return ExperimentResult.from_rows(
        "fig5ce_distance_hist", rows,
        notes=(
            "Paper Figs. 5(c-e): roughly unimodal distributions approximated "
            "as Gaussians of their (mu, sigma) for VP sizing."
        ),
    )


def fig5fh_fpr(
    ctx: BenchContext,
    theta_factors=(0.6, 0.8, 1.0, 1.3, 1.7),
    num_pairs: int = 1200,
) -> ExperimentResult:
    """Figs. 5(f–h): observed FPR vs the Eq. 11 upper bound across θ.

    Uses the NB-Index's own vantage embedding, so the measured numbers are
    exactly what the query engine experiences.
    """
    embedding = ctx.nbindex.embedding
    distribution = sample_distances(
        ctx.database, ctx.distance, num_pairs=num_pairs, rng=ctx.seed
    )
    rows = []
    for factor in theta_factors:
        theta = ctx.theta * factor
        observed = empirical_fpr(
            embedding, ctx.distance, ctx.database.graphs, theta,
            num_pairs=num_pairs, rng=ctx.seed + 1,
        )
        bound = fpr_upper_bound_gaussian(
            theta, distribution.mean, distribution.std,
            embedding.num_vantage_points,
        )
        rows.append({
            "theta": theta,
            "observed_fpr": observed,
            "fpr_upper_bound": bound,
            "num_vps": embedding.num_vantage_points,
        })
    return ExperimentResult.from_rows(
        f"fig5fh_fpr_{ctx.name}", rows,
        notes=(
            "Paper Figs. 5(f-h): FPR small in the realistic theta zone; the "
            "Gaussian bound tracks it except where the true distribution "
            "deviates from normality. Highest FPR on the most tightly "
            "clustered dataset."
        ),
    )


def fig7_qualitative(
    num_graphs: int = 200,
    seed: int = 9,
    k: int = 5,
    target_dim: int = 0,
) -> ExperimentResult:
    """Fig. 7 / Sec. 8.4: traditional top-k vs top-k representative answers
    under a single-target (AChE-style) affinity query.

    The paper's finding: the traditional answer set shares one scaffold
    (tiny pairwise distances), the representative answer set spans distinct
    structural families and covers far more of the relevant set.
    """
    distance = StarDistance()
    database = dud_like(num_graphs=num_graphs, seed=seed, outlier_fraction=0.0)
    theta = calibrate_theta(database, distance, quantile=0.05, rng=seed)
    q = quartile_relevance(database, dims=[target_dim])

    answers = {
        "traditional_topk": traditional_top_k(database, q, k),
        "representative": baseline_greedy(database, distance, q, theta, k).answer,
    }
    evaluated = evaluate_answers(database, distance, q, theta, answers)
    rows = []
    for engine, answer in answers.items():
        spread = answer_set_redundancy(database, distance, answer)
        rows.append({
            "engine": engine,
            "answer_ids": ",".join(str(a) for a in answer),
            "mean_pairwise_dist": spread["mean"],
            "min_pairwise_dist": spread["min"],
            "pi": evaluated[engine]["pi"],
            "CR": evaluated[engine]["compression_ratio"],
        })
    return ExperimentResult.from_rows(
        "fig7_qualitative", rows,
        notes=(
            "Paper Fig. 7: traditional top-5 molecules share a core scaffold "
            "(low pairwise distance, low coverage); the representative top-5 "
            "spans five families (high pairwise distance, higher pi/CR)."
        ),
    )
