"""The runtime filter pipeline.

:class:`FilterCascade` is the per-query runtime built from a
:class:`~repro.cascade.config.CascadeConfig`: it owns the per-stage
``evals`` / ``prunes`` / ``seconds`` counters and runs the configured
stages over a candidate block between enumeration and exact
verification.  :meth:`run` is the generalization of the engine's
historical ``within`` body — with the default configuration (vantage
stage only, ε = 0) it performs the identical passes, emits the identical
``engine.prefilter.*`` counters and returns the identical mask, which is
what the dual-run identity tests in ``tests/test_cascade.py`` pin down.

Pruning.  A stage removes a candidate once its lower bound exceeds the
relaxed cutoff ``(1−ε)·θ + eps``; exact verification still accepts at
``θ + eps``.  At ε = 0 every prune is justified by the stage's soundness
proof (see :mod:`repro.cascade.stages`), so results are bit-identical to
the unfiltered pipeline for any stage subset or ordering.  At ε > 0 the
answered neighborhood ``N'`` satisfies ``N_{(1−ε)θ} ⊆ N' ⊆ N_θ`` — no
false positives, only borderline members may be dropped — which keeps
the lazy greedy's ``(1 − 1/e − ε)`` approximation guarantee.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.cascade.config import CascadeConfig, resolve_cascade
from repro.cascade.stages import BLOCK_EVALS, batch_lower_bounds


class FilterCascade:
    """Per-query stage runtime with accumulated prune statistics."""

    __slots__ = ("config", "counts")

    def __init__(self, config: CascadeConfig | None = None):
        self.config = config if config is not None else CascadeConfig()
        self.counts: dict[str, dict[str, float]] = {}

    # -- config passthroughs ------------------------------------------
    @property
    def epsilon(self) -> float:
        return self.config.epsilon

    @property
    def approximate(self) -> bool:
        return self.config.approximate

    def generation_theta(self, theta: float) -> float:
        """Relaxed threshold for candidate-window generation."""
        return self.config.generation_theta(theta)

    # -- statistics ---------------------------------------------------
    def _record(self, name, evals, prunes, seconds, accepts=0):
        entry = self.counts.setdefault(
            name, {"evals": 0, "prunes": 0, "accepts": 0, "seconds": 0.0}
        )
        entry["evals"] += evals
        entry["prunes"] += prunes
        entry["accepts"] += accepts
        entry["seconds"] += seconds
        if obs.enabled():
            obs.counter(f"cascade.{name}.evals", evals)
            obs.counter(f"cascade.{name}.prunes", prunes)
            if accepts:
                obs.counter(f"cascade.{name}.accepts", accepts)
            obs.observe_time(f"cascade.{name}.seconds", seconds)

    def snapshot(self) -> dict:
        """Per-stage counters for ``QueryStats.cascade`` (JSON-safe)."""
        return {
            name: {
                "evals": int(entry["evals"]),
                "prunes": int(entry["prunes"]),
                "accepts": int(entry["accepts"]),
                "seconds": float(entry["seconds"]),
            }
            for name, entry in self.counts.items()
        }

    # -- the hot path -------------------------------------------------
    def run(
        self,
        engine,
        source,
        targets,
        theta: float,
        eps: float,
        *,
        prefiltered: bool = False,
    ) -> np.ndarray:
        """Boolean mask of ``d(source, t) ≤ θ + eps`` over ``targets``,
        with configured stages pruning at ``(1−ε)·θ + eps`` first.

        ``prefiltered=True`` asserts the caller already ran the vantage
        Chebyshev lower bound over these targets at this (relaxed)
        threshold — e.g. via ``VantageEmbedding.candidates`` — so the
        vantage stage skips the redundant lower pass (it would reject
        exactly zero candidates) and only applies the upper-bound accept.
        """
        n = len(targets)
        mask = np.zeros(n, dtype=bool)
        if not n:
            return mask
        cutoff = self.generation_theta(theta) + eps
        accept = theta + eps
        # Index references as one id array (an id array passes through
        # untouched); ``None`` when any side is a free-standing graph.
        ids = None
        if isinstance(source, (int, np.integer)):
            if isinstance(targets, np.ndarray):
                ids = targets
            elif all(isinstance(t, (int, np.integer)) for t in targets):
                ids = np.asarray(targets, dtype=np.int64)
        survivors = np.arange(n)
        for name in self.config.stages:
            if not survivors.size:
                break
            started = time.perf_counter()
            if name == "vantage":
                survivors = self._vantage_stage(
                    engine, source, ids, survivors, mask,
                    cutoff, accept, prefiltered, started,
                )
                continue
            bounds = batch_lower_bounds(name, engine, source, ids, survivors)
            if bounds is None:
                continue
            keep = bounds <= cutoff
            pruned = int(np.count_nonzero(~keep))
            self._record(
                name, int(survivors.size), pruned,
                time.perf_counter() - started,
            )
            survivors = survivors[keep]
        if survivors.size:
            if ids is not None:
                refs = ids[survivors]
            else:
                refs = [targets[p] for p in survivors]
            distances = engine.one_to_many(source, refs)
            mask[survivors] = distances <= accept
        return mask

    def _vantage_stage(
        self, engine, source, ids, survivors, mask,
        cutoff, accept, prefiltered, started,
    ):
        """The Lipschitz sandwich — lower-bound prune plus upper-bound
        accept — mirroring the engine's historical prefilter counters."""
        embedding = engine._embedding
        if embedding is None or ids is None:
            return survivors
        coords = embedding.coords
        source_row = coords[int(source)]
        if prefiltered:
            # The caller's candidate window already applied this exact
            # lower-bound predicate; re-running it would reject nothing
            # (and double-count the block pass).
            rejected = 0
            undecided = survivors
        else:
            obs.counter(BLOCK_EVALS)
            lower = np.max(np.abs(coords[ids[survivors]] - source_row), axis=1)
            keep = lower <= cutoff
            rejected = int(np.count_nonzero(~keep))
            undecided = survivors[keep]
        upper = np.min(coords[ids[undecided]] + source_row, axis=1)
        accepted = upper <= accept
        accepts = int(np.count_nonzero(accepted))
        with engine._cache_lock:
            engine.prefilter_lower_rejections += rejected
            engine.prefilter_upper_accepts += accepts
        mask[undecided[accepted]] = True
        remaining = undecided[~accepted]
        obs.counter("engine.prefilter.candidates", int(survivors.size))
        obs.counter("engine.prefilter.lower_rejections", rejected)
        obs.counter("engine.prefilter.upper_accepts", accepts)
        obs.counter("engine.prefilter.verified", int(remaining.size))
        self._record(
            "vantage", int(survivors.size), rejected,
            time.perf_counter() - started, accepts=accepts,
        )
        return remaining


def runtime_for(cascade, epsilon: float = 0.0) -> FilterCascade | None:
    """Build the per-query runtime from public kwargs; ``None`` for the
    implicit default (legacy hot path, engine-held runtime)."""
    config = resolve_cascade(cascade, epsilon)
    return FilterCascade(config) if config is not None else None
