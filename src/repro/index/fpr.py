"""False-positive-rate theory for vantage points (Sec. 6.2.1).

The benefit of more vantage points is a tighter candidate superset
``N̂_θ(g)``; the cost is linear in ``|V|`` in both storage and candidate
generation.  The paper derives closed-form upper bounds on the probability
that a random pair is a *false positive* — passing every vantage filter yet
lying beyond θ — under Gaussian (Eq. 11) and uniform (Eq. 12) distance
distributions, and uses them to size ``|V|`` (100 VPs for ≤ 5% FPR in the
experiments).

This module implements those bounds, the |V| selection rule, and the
empirical FPR estimator used in Figs. 5(f)–5(h).
"""

from __future__ import annotations

import numpy as np

from repro.ged.metric import GraphDistanceFn
from repro.index.vantage import VantageEmbedding
from repro.utils.rng import ensure_rng
from repro.utils.validation import require, require_positive


def fpr_upper_bound_gaussian(
    theta: float,
    mu: float,
    sigma: float,
    num_vps: int,
) -> float:
    """Eq. 11: FPR ≤ (1 − Φ((θ−μ)/σ)) · (2Φ(θ/σ) − 1)^|V|.

    ``mu``/``sigma`` are the mean and standard deviation of the pairwise
    distance distribution, assumed Gaussian.
    """
    # Imported here: scipy.stats costs ~30 MB per process and only this
    # sizing rule — never the query path — needs its Φ.
    from scipy.stats import norm

    require_positive(sigma, "sigma")
    require(num_vps >= 1, f"num_vps must be >= 1, got {num_vps}")
    miss = 1.0 - norm.cdf((theta - mu) / sigma)
    per_vp_pass = 2.0 * norm.cdf(theta / sigma) - 1.0
    per_vp_pass = min(max(per_vp_pass, 0.0), 1.0)
    return float(miss * per_vp_pass**num_vps)


def fpr_uniform(theta: float, diameter: float, num_vps: int) -> float:
    """Eq. 12: with d ~ U(0, mθ), FPR = ((m−1)/m) · m^{−|V|}.

    ``diameter`` is the metric-space diameter ``mθ``.
    """
    require_positive(theta, "theta")
    require_positive(diameter, "diameter")
    require(num_vps >= 1, f"num_vps must be >= 1, got {num_vps}")
    m = diameter / theta
    if m <= 1.0:
        # Every pair is within θ; no false positives are possible.
        return 0.0
    return float((m - 1.0) / m * m**-num_vps)


def choose_num_vps(
    target_fpr: float,
    thetas,
    mu: float,
    sigma: float,
    max_vps: int = 1024,
) -> int:
    """Smallest |V| whose Gaussian bound stays below ``target_fpr``
    across every θ in ``thetas`` — the sizing rule behind the paper's
    "100 VPs for FPR < 5% over the realistic θ zone".
    """
    require(0.0 < target_fpr < 1.0, f"target_fpr must be in (0,1), got {target_fpr}")
    thetas = list(thetas)
    require(len(thetas) > 0, "thetas must be non-empty")
    for num_vps in range(1, max_vps + 1):
        worst = max(
            fpr_upper_bound_gaussian(theta, mu, sigma, num_vps) for theta in thetas
        )
        if worst <= target_fpr:
            return num_vps
    return max_vps


def empirical_fpr(
    embedding: VantageEmbedding,
    distance: GraphDistanceFn,
    graphs,
    theta: float,
    num_pairs: int = 2000,
    rng=None,
) -> float:
    """Measured FPR over sampled pairs: P(vantage filters pass ∧ d > θ).

    Matches the quantity bounded by Eq. 8/11 — the probability that a
    random pair survives every vantage filter yet is not a true neighbor.
    """
    rng = ensure_rng(rng)
    n = len(embedding)
    require(n >= 2, "need at least two graphs")
    false_positives = 0
    for _ in range(num_pairs):
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        while j == i:
            j = int(rng.integers(n))
        if embedding.lower_bound(i, j) <= theta:
            if distance(graphs[i], graphs[j]) > theta:
                false_positives += 1
    return false_positives / num_pairs


def distance_moments(
    graphs,
    distance: GraphDistanceFn,
    num_pairs: int = 2000,
    rng=None,
) -> tuple[float, float]:
    """Sampled mean and standard deviation of the pairwise distance
    distribution — the μ, σ that feed Eq. 11 (cf. Figs. 5(c)–5(e))."""
    rng = ensure_rng(rng)
    n = len(graphs)
    require(n >= 2, "need at least two graphs")
    samples = np.empty(num_pairs)
    for t in range(num_pairs):
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        while j == i:
            j = int(rng.integers(n))
        samples[t] = distance(graphs[i], graphs[j])
    return float(samples.mean()), float(samples.std())
