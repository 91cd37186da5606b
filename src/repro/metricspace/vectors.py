"""Euclidean / Minkowski vector spaces as representative-query databases.

The most common non-graph metric space: points in R^d.  Fig. 1(b) of the
paper motivates the whole model in exactly this setting (cluster centers
vs relevant outliers), so this module lets the example and tests replay
that argument literally.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graphs.database import GraphDatabase
from repro.metricspace.generic import PayloadDistance, metric_space_database
from repro.utils.validation import require


class MinkowskiMetric:
    """L_p metric on vectors (p ≥ 1 keeps the triangle inequality)."""

    def __init__(self, p: float = 2.0):
        require(p >= 1.0, f"p must be >= 1 for a metric, got {p}")
        self.p = float(p)

    def __call__(self, a, b) -> float:
        diff = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
        if np.isinf(self.p):
            return float(diff.max())
        return float((diff**self.p).sum() ** (1.0 / self.p))

    def one_to_many(self, a, block) -> np.ndarray:
        """``[self(a, row) for row in block]`` over an ``(m, d)`` block, bit
        for bit: the same elementwise ``abs`` and ``** p``, row sums that
        numpy reduces as it reduces one row, and the ``1/p`` root taken per
        row with the one-pair call's own scalar power.  numpy's array
        ``** 0.5`` would be ``sqrt``, which differs from the scalar power on
        ~0.08 % of pairs, and ``np.power`` with an array exponent on ~5 %."""
        diff = np.asarray(a, dtype=float) - np.asarray(block, dtype=float)
        np.abs(diff, out=diff)
        if math.isinf(self.p):
            return np.maximum.reduce(diff, axis=1)
        diff **= self.p
        root = 1.0 / self.p
        return np.array(
            [total**root for total in np.add.reduce(diff, axis=1)], dtype=float
        )

    def __repr__(self) -> str:
        return f"MinkowskiMetric(p={self.p:g})"


def vector_database(
    points,
    features=None,
    p: float = 2.0,
) -> tuple[GraphDatabase, PayloadDistance]:
    """A representative-query database over points in R^d.

    ``features`` defaults to the coordinates themselves, so relevance
    functions can select by position (e.g. "points with x ≥ τ are
    relevant").
    """
    matrix = np.asarray(points, dtype=float)
    require(matrix.ndim == 2, f"points must be (n, d), got shape {matrix.shape}")
    if features is None:
        features = matrix
    return metric_space_database(matrix, MinkowskiMetric(p), features=features)
