"""The experiment registry: every table and figure of the reproduction,
declared once, in the paper's order.

``repro experiment``, ``benchmarks/bench_paper.py``, the tier-1 smoke
(``tests/test_experiment_drivers.py``) and ``scripts/build_report.py`` all
iterate :data:`EXPERIMENTS` and run an entry through
:func:`run_experiment`, so one name means one set of arguments and one
``results/`` file whichever door it came through.  An argument is either
the driver's own default or, when it depends on the scale, a function of
the active :data:`~repro.bench.harness.SCALES` row here — never both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.bench import distances, experiments, scaling
from repro.bench.harness import (
    SCALES,
    BenchContext,
    ExperimentResult,
    bench_scale,
)
from repro.bench.printers import print_and_save

ALL = ("dud", "dblp", "amazon")


class ClaimFailed(AssertionError):
    """A regenerated table contradicts the paper claim it reproduces."""


def claim(holds: bool, text: str) -> None:
    if not holds:
        raise ClaimFailed(text)


@dataclass(frozen=True)
class Experiment:
    """One table/figure: how to call its driver and what it must show.

    ``takes`` is what the driver's first argument is: ``"ctx"`` (one
    :class:`BenchContext`, one run per dataset), ``"dataset"`` (a dataset
    name, one run per dataset), ``"contexts"`` (all of ``datasets`` in one
    run) or ``None``.  ``check(result, full)`` raises :class:`ClaimFailed`;
    claims on seconds or sample statistics are asserted only when ``full``.
    ``chart`` is the (x, ys, log_y) of the ASCII figure appended to the
    table.
    """

    heading: str
    driver: Callable[..., ExperimentResult]
    check: Callable[[ExperimentResult, bool], None]
    takes: str | None = None
    datasets: tuple[str, ...] = ()
    kwargs: Callable[[dict], dict] = lambda scale: {}
    chart: tuple[str, list[str], bool] | None = None

    @property
    def name(self) -> str:
        return self.driver.__name__

    def runs(self) -> tuple:
        """The ``dataset`` argument of each run of this entry."""
        return self.datasets if self.takes in ("ctx", "dataset") else (None,)


def stem(name: str, dataset: str | None) -> str:
    """The ``results/<stem>.txt`` a run writes (its result's ``name``)."""
    return f"{name}_{dataset}" if dataset else name


# ---------------------------------------------------------------------------
# Paper-claim checks.  Shapes and counts repeat exactly, so they are asserted
# at every scale; seconds and sample statistics only where ``full`` says the
# scale is large enough for them to mean something.
# ---------------------------------------------------------------------------
def _fig2a(r, full):
    sizes = r.column("answer_size")
    claim(sizes == sorted(sizes) and sizes[-1] > sizes[0],
          "DisC's answer grows with |L_q| (no budget control)")
    claim(max(r.column("compression_ratio")) < 10, "DisC CR stays low (≈3)")


def _fig2b(r, full):
    sizes, calls = r.column("size"), r.column("plain_greedy_calls")
    claim(calls[-1] / calls[0] > sizes[-1] / sizes[0],
          "Algorithm 1's exact calls grow superlinearly with size")
    if full:
        times = r.column("ctree_greedy_s")
        claim(times[-1] / max(times[0], 1e-9) > sizes[-1] / sizes[0] * 0.5,
              "C-tree greedy's runtime grows at least near-linearly")


def _table4(r, full):
    for row in r.rows:
        if row["REP_CR"] is None:
            continue  # the DisC summary row
        # CR is only comparable between equal-size answers (DIV(2θ) may
        # return fewer than k), so π carries the quality claim.
        claim(row["REP_pi"] >= max(row["DIV(t)_pi"], row["DIV(2t)_pi"]) - 1e-9,
              f"REP's π dominates DIV's ({row['dataset']}, k={row['k']})")


def _fig5ab(r, full):
    for dataset in dict.fromkeys(r.column("dataset")):
        cdf = [row["cdf"] for row in r.rows if row["dataset"] == dataset]
        claim(all(a <= b + 1e-12 for a, b in zip(cdf, cdf[1:]))
              and cdf[-1] == 1.0,
              f"{dataset}: CDF is monotone and reaches 1 at the diameter")


def _fig5ce(r, full):
    cv = {row["dataset"]: row["sigma"] / row["mu"] for row in r.rows}
    claim(min(cv.values()) > 0, "every dataset's distances are dispersed")
    if full:
        claim(cv["amazon"] > cv["dblp"],
              "Amazon's distances are relatively more dispersed than DBLP's")


def _fig5fh(r, full):
    for row in r.rows:
        claim(0.0 <= row["observed_fpr"] <= 1.0
              and 0.0 <= row["fpr_upper_bound"] <= 1.0, "FPRs are rates")
    if full:
        at_theta = r.rows[len(r.rows) // 2]  # the sweep is centred on θ
        claim(at_theta["observed_fpr"] <= 0.5,
              "the vantage FPR stays small in the realistic θ zone")


def _nb_beats_ctree(r, full):
    for row in r.rows:
        claim(row["nbindex_calls"] < row["ctree_greedy_calls"],
              "NB-Index pays fewer exact distances than C-tree greedy")
        if full:
            claim(row["nbindex_s"] < row["ctree_greedy_s"] * 2.0,
                  "NB-Index is not slower than C-tree greedy")


def _fig5ik(r, full):
    _nb_beats_ctree(r, full)
    if full:
        claim(sum(r.column("nbindex_s")) < sum(r.column("ctree_greedy_s")),
              "NB-Index beats C-tree greedy across θ")


def _fig6bd(r, full):
    last = r.rows[-1]
    claim(last["nbindex_calls"] < last["ctree_greedy_calls"],
          "NB-Index pays fewer exact distances at the largest size")
    if full:
        claim(last["nbindex_s"] < last["ctree_greedy_s"],
              "NB-Index is faster at the largest size")


def _fig6eg(r, full):
    _nb_beats_ctree(r, full)
    claim(len(set(r.column("div_calls"))) == 1,
          "DIV's distance work does not depend on k")
    if full:
        div = r.column("div_s")
        claim(max(div) < max(min(div), 0.01) * 20, "DIV is nearly flat in k")


def _fig6h(r, full):
    calls = r.column("nbindex_calls")
    claim(max(calls) < max(min(calls), 1) * 25,
          "NB-Index's exact distances are nearly flat in dimensionality")
    if full:
        times = r.column("nbindex_s")
        claim(max(times) < max(min(times), 0.01) * 25,
              "query time is nearly flat in dimensionality")


def _zoom(r, full):
    for row in r.rows:
        claim(row["nb_refine_avg_calls"] < row["ctree_recompute_avg_calls"],
              "a refinement reuses the session's distances")
        if full:
            claim(row["nb_refine_avg_s"] < row["ctree_recompute_avg_s"],
                  "a refinement is cheaper than recomputing from scratch")


def _fig6k(r, full):
    for row in r.rows:
        claim(row["nb_distance_calls"] < row["matrix_distance_calls"],
              "the build evaluates fewer pairs than the distance matrix")
    fractions = r.column("calls_fraction")
    claim(fractions[-1] < fractions[0],
          "the evaluated fraction of pairs shrinks with database size")


def _fig6l(r, full):
    nb = r.column("nb_index_bytes")
    per_graph = [b / s for b, s in zip(nb, r.column("size"))]
    claim(max(per_graph) < min(per_graph) * 3,
          "index memory grows linearly (bytes per graph roughly constant)")
    claim(nb[-1] < r.rows[-1]["matrix_bytes"],
          "the index is smaller than the quadratic matrix")


def _fig7(r, full):
    by_engine = {row["engine"]: row for row in r.rows}
    top, rep = by_engine["traditional_topk"], by_engine["representative"]
    claim(rep["mean_pairwise_dist"] >= top["mean_pairwise_dist"]
          and rep["pi"] >= top["pi"] and rep["CR"] >= top["CR"],
          "the representative answer is more diverse and covers more")


def _vp_count(r, full):
    fprs = r.column("observed_fpr")
    claim(all(0.0 <= fpr <= 1.0 for fpr in fprs), "FPRs are rates")
    if full:
        claim(fprs == sorted(fprs, reverse=True),
              "more vantage points, lower FPR")


def _bounds(r, full):
    pis = r.column("pi")
    claim(max(pis) - min(pis) < 1e-9,
          "every bound variant returns an equally good greedy answer")


def _insert(r, full):
    by_name = {row["index"]: row for row in r.rows}
    inc, rebuilt = by_name["incremental"], by_name["rebuilt"]
    # Tie resolution may differ between the two trees, so not exact equality.
    claim(abs(inc["pi"] - rebuilt["pi"]) < 0.15,
          "inserts keep the answer quality of a rebuild")
    if full:
        claim(inc["maintenance_s"] < rebuilt["maintenance_s"],
              "inserting is cheaper than rebuilding")


def _distance_quality(r, full):
    by_name = {row["distance"]: row for row in r.rows}
    if full:
        claim(by_name["star_metric"]["spearman_vs_exact"] > 0.8,
              "the star distance ranks pairs like exact GED")
    claim(by_name["star_metric"]["metric_on_sample"],
          "the star distance is a metric (the NB-Index requirement)")
    for name in ("bipartite_ub", "beam8_ub", "exact_astar"):
        claim(by_name[name]["always_upper_bound"],
              f"{name} never undercuts exact GED")


def _sweep(scale):
    return {"sizes": scale["sweep"]}


_ENGINE_SECONDS = ["nbindex_s", "ctree_greedy_s", "disc_s", "div_s"]
_ABLATIONS = "Ablations (beyond the paper)"

#: Every experiment, in the order the report presents them.
EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment("Fig. 2(a) — DisC answer-set growth",
               experiments.fig2a_disc_growth, _fig2a, "ctx", ("dud",),
               chart=("relevant", ["answer_size"], False)),
    Experiment("Fig. 2(b) — Algorithm 1 over NN-indexes",
               scaling.fig2b_baseline_scaling, _fig2b, "dataset", ("dud",),
               kwargs=_sweep,
               chart=("size", ["plain_greedy_s", "ctree_greedy_s",
                               "mtree_greedy_s"], True)),
    Experiment("Table 4 — answer-set quality",
               experiments.table4_quality, _table4, "contexts", ALL),
    Experiment("Figs. 5(a–b) — distance CDFs",
               experiments.fig5ab_distance_cdf, _fig5ab, "contexts", ALL),
    Experiment("Figs. 5(c–e) — distance histograms",
               experiments.fig5ce_distance_hist, _fig5ce, "contexts", ALL),
    Experiment("Figs. 5(f–h) — vantage FPR",
               experiments.fig5fh_fpr, _fig5fh, "ctx", ALL,
               chart=("theta", ["observed_fpr", "fpr_upper_bound"], True)),
    Experiment("Figs. 5(i–k) — query time vs θ",
               scaling.fig5ik_time_vs_theta, _fig5ik, "ctx", ALL,
               chart=("theta", _ENGINE_SECONDS, True)),
    Experiment("Figs. 6(b–d) — query time vs size",
               scaling.fig6bd_time_vs_size, _fig6bd, "dataset", ALL,
               kwargs=_sweep, chart=("size", _ENGINE_SECONDS, True)),
    Experiment("Figs. 6(e–g) — query time vs k",
               scaling.fig6eg_time_vs_k, _fig6eg, "ctx", ALL,
               chart=("k", _ENGINE_SECONDS, True)),
    Experiment("Fig. 6(h) — feature dimensionality",
               scaling.fig6h_time_vs_dims, _fig6h, "ctx", ("dud",),
               chart=("dims", ["nbindex_s", "ctree_greedy_s"], True)),
    Experiment("Fig. 6(i) — interactive zoom",
               scaling.fig6i_zoom, _zoom, "contexts", ALL),
    Experiment("Fig. 6(j) — zoom scaling",
               scaling.fig6j_zoom_scaling, _zoom, "dataset", ("dud",),
               kwargs=_sweep,
               chart=("size", ["nb_refine_avg_s", "ctree_recompute_avg_s"],
                      True)),
    Experiment("Fig. 6(k) — index construction",
               scaling.fig6k_index_build, _fig6k, "dataset", ("dud",),
               kwargs=_sweep,
               chart=("size", ["nb_build_s", "matrix_build_s"], True)),
    Experiment("Fig. 6(l) — index memory",
               scaling.fig6l_index_memory, _fig6l, "dataset", ("dud",),
               kwargs=_sweep,
               chart=("size", ["nb_index_bytes", "matrix_bytes"], True)),
    Experiment("Fig. 7 — qualitative comparison",
               experiments.fig7_qualitative, _fig7),
    Experiment(_ABLATIONS, scaling.ablation_vp_count, _vp_count, "ctx",
               ("dud",), chart=("num_vps", ["observed_fpr"], True)),
    Experiment(_ABLATIONS, scaling.ablation_bounds, _bounds, "ctx", ("dud",)),
    Experiment(_ABLATIONS, scaling.ablation_insert, _insert, "dataset",
               ("dud",)),
    Experiment(_ABLATIONS, distances.ablation_distance_quality,
               _distance_quality, kwargs=lambda scale: scale["exact_ged"]),
)


def lookup(name: str) -> Experiment:
    for entry in EXPERIMENTS:
        if entry.name == name:
            return entry
    raise KeyError(name)


def run_experiment(name: str, dataset: str | None = None,
                   seed: int = 7) -> ExperimentResult:
    """Run one (entry, dataset) at the active scale: build what the driver
    takes, call it, write ``results/<stem>.txt``, then check the claim (so
    a table that breaks its claim is still there to read)."""
    entry = lookup(name)
    scale = SCALES[bench_scale()]
    kwargs = entry.kwargs(scale)
    if entry.takes == "ctx":
        args = (BenchContext.create(dataset, seed=seed),)
    elif entry.takes == "contexts":
        args = ([BenchContext.create(d, seed=seed) for d in entry.datasets],)
    elif entry.takes == "dataset":
        args, kwargs = (dataset,), {**kwargs, "seed": seed}
    else:
        args = ()
    result = entry.driver(*args, **kwargs)
    claim(result.name == stem(name, dataset),
          f"{name} named its table {result.name!r}")
    result.notes = f"{result.notes} [scale: {bench_scale()}]".strip()
    print_and_save(result)
    entry.check(result, scale["full_claims"])
    return result
