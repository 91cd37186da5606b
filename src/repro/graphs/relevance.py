"""Query-time relevance functions ``q : features → {-1, +1}``.

The paper's model (Definition 1) classifies each graph as relevant or not via
a user-provided function over its feature vector.  Table 1 of the paper lists
four application archetypes; each has a concrete implementation here:

* Example 1 (molecular library): :class:`AverageScoreThreshold` — the mean of
  a chosen subset of affinity dimensions against a threshold.
* Example 2 (information cascades): :class:`JaccardTopicQuery` — Jaccard
  similarity of a binary topic vector against a query topic set.
* Example 3 (bug analysis): :class:`WeightedScoreThreshold` — ``w·g`` against
  a threshold.
* Example 4 (social networks): :class:`ExpertiseOverlapQuery` — size of the
  intersection with a query expertise set.

All implementations expose both a scalar ``__call__(row) → bool`` and a
vectorized ``mask(matrix) → bool array``, plus ``score``/``scores`` so the
traditional top-k baseline (Fig. 7) can rank by the same notion of relevance.

The paper's experiments (Sec. 8.2.1) declare a graph relevant when its
feature-space score falls in the top quartile; :func:`quartile_relevance`
builds exactly that query from a database.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.graphs.database import GraphDatabase
from repro.utils.validation import require


class QueryFunction:
    """Base class for relevance functions.

    Subclasses implement :meth:`scores`; relevance is ``score >= threshold``.
    """

    #: score at or above which a graph is relevant
    threshold: float

    def scores(self, matrix: np.ndarray) -> np.ndarray:
        """Vector of feature-space scores, one per row of ``matrix``."""
        raise NotImplementedError

    def score(self, row: np.ndarray) -> float:
        """Feature-space score of a single feature vector."""
        return float(self.scores(np.atleast_2d(np.asarray(row, dtype=float)))[0])

    def mask(self, matrix: np.ndarray) -> np.ndarray:
        """Boolean relevance mask over all rows of ``matrix``."""
        return self.scores(np.asarray(matrix, dtype=float)) >= self.threshold

    def __call__(self, row) -> bool:
        return bool(self.score(row) >= self.threshold)

    def label(self, row) -> int:
        """The paper's ``{-1, +1}`` convention."""
        return 1 if self(row) else -1


class AverageScoreThreshold(QueryFunction):
    """Example 1 of Table 1: mean of selected dimensions vs a threshold.

    ``q(g) = (1/d) * Σ_{j ∈ dims} g_j ≥ threshold`` — the experimental setup
    of Sec. 8.2.1, where a random subset of ``d`` of DUD's 10 dimensions is
    averaged.
    """

    def __init__(self, dims: Sequence[int], threshold: float):
        self.dims = tuple(int(d) for d in dims)
        require(len(self.dims) > 0, "dims must be non-empty")
        self.threshold = float(threshold)

    def scores(self, matrix: np.ndarray) -> np.ndarray:
        return matrix[:, list(self.dims)].mean(axis=1)

    def __repr__(self) -> str:
        return f"AverageScoreThreshold(dims={self.dims}, threshold={self.threshold:g})"


class WeightedScoreThreshold(QueryFunction):
    """Example 3 of Table 1: ``q(g) = wᵀ·g ≥ threshold``."""

    def __init__(self, weights: Sequence[float], threshold: float):
        self.weights = np.asarray(weights, dtype=float)
        require(self.weights.ndim == 1, "weights must be a vector")
        self.threshold = float(threshold)

    def scores(self, matrix: np.ndarray) -> np.ndarray:
        require(
            matrix.shape[1] == self.weights.shape[0],
            f"feature dim {matrix.shape[1]} != weight dim {self.weights.shape[0]}",
        )
        return matrix @ self.weights

    def __repr__(self) -> str:
        return f"WeightedScoreThreshold(dim={len(self.weights)}, threshold={self.threshold:g})"


class JaccardTopicQuery(QueryFunction):
    """Example 2 of Table 1: Jaccard similarity against a topic set.

    Feature vectors are interpreted as binary topic-membership indicators;
    ``q(g, T) = |g ∩ T| / |g ∪ T| ≥ threshold``.
    """

    def __init__(self, topics: Sequence[int], num_topics: int, threshold: float):
        self.topics = np.zeros(num_topics, dtype=bool)
        for t in topics:
            require(0 <= t < num_topics, f"topic {t} outside 0..{num_topics - 1}")
            self.topics[t] = True
        require(self.topics.any(), "topic set must be non-empty")
        self.threshold = float(threshold)

    def scores(self, matrix: np.ndarray) -> np.ndarray:
        binary = matrix > 0.5
        intersection = (binary & self.topics).sum(axis=1)
        union = (binary | self.topics).sum(axis=1)
        # A graph with no topics and an empty union can't occur (topic set is
        # non-empty), so union >= 1 always.
        return intersection / union

    def __repr__(self) -> str:
        chosen = tuple(int(i) for i in np.flatnonzero(self.topics))
        return f"JaccardTopicQuery(topics={chosen}, threshold={self.threshold:g})"


class ExpertiseOverlapQuery(QueryFunction):
    """Example 4 of Table 1: ``q(g, E) = |g ∩ E| ≥ threshold``."""

    def __init__(self, expertise: Sequence[int], num_areas: int, threshold: float):
        self.expertise = np.zeros(num_areas, dtype=bool)
        for e in expertise:
            require(0 <= e < num_areas, f"area {e} outside 0..{num_areas - 1}")
            self.expertise[e] = True
        self.threshold = float(threshold)

    def scores(self, matrix: np.ndarray) -> np.ndarray:
        binary = matrix > 0.5
        return (binary & self.expertise).sum(axis=1).astype(float)

    def __repr__(self) -> str:
        chosen = tuple(int(i) for i in np.flatnonzero(self.expertise))
        return f"ExpertiseOverlapQuery(areas={chosen}, threshold={self.threshold:g})"


class And(QueryFunction):
    """Conjunction of query functions: relevant iff all parts agree.

    Composites expose ``mask`` (not ``scores``) because boolean
    combinations of thresholds have no single scalar score; ``score`` is
    therefore undefined for them and ranking baselines should be given one
    of the parts instead.
    """

    def __init__(self, *parts: QueryFunction):
        require(len(parts) >= 1, "And needs at least one part")
        self.parts = parts
        self.threshold = 0.0

    def mask(self, matrix: np.ndarray) -> np.ndarray:
        result = self.parts[0].mask(matrix)
        for part in self.parts[1:]:
            result = result & part.mask(matrix)
        return result

    def __call__(self, row) -> bool:
        return all(part(row) for part in self.parts)

    def scores(self, matrix: np.ndarray) -> np.ndarray:
        raise NotImplementedError("composite queries have no scalar score")

    def __repr__(self) -> str:
        return "And(" + ", ".join(repr(p) for p in self.parts) + ")"


class Or(QueryFunction):
    """Disjunction of query functions: relevant iff any part agrees."""

    def __init__(self, *parts: QueryFunction):
        require(len(parts) >= 1, "Or needs at least one part")
        self.parts = parts
        self.threshold = 0.0

    def mask(self, matrix: np.ndarray) -> np.ndarray:
        result = self.parts[0].mask(matrix)
        for part in self.parts[1:]:
            result = result | part.mask(matrix)
        return result

    def __call__(self, row) -> bool:
        return any(part(row) for part in self.parts)

    def scores(self, matrix: np.ndarray) -> np.ndarray:
        raise NotImplementedError("composite queries have no scalar score")

    def __repr__(self) -> str:
        return "Or(" + ", ".join(repr(p) for p in self.parts) + ")"


class Not(QueryFunction):
    """Negation of a query function."""

    def __init__(self, part: QueryFunction):
        self.part = part
        self.threshold = 0.0

    def mask(self, matrix: np.ndarray) -> np.ndarray:
        return ~np.asarray(self.part.mask(matrix), dtype=bool)

    def __call__(self, row) -> bool:
        return not self.part(row)

    def scores(self, matrix: np.ndarray) -> np.ndarray:
        raise NotImplementedError("composite queries have no scalar score")

    def __repr__(self) -> str:
        return f"Not({self.part!r})"


class CallableQuery(QueryFunction):
    """Adapter turning an arbitrary scoring callable into a query function."""

    def __init__(self, score_fn: Callable[[np.ndarray], float], threshold: float):
        self._score_fn = score_fn
        self.threshold = float(threshold)

    def scores(self, matrix: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (float(self._score_fn(row)) for row in matrix),
            dtype=float,
            count=matrix.shape[0],
        )


def quartile_relevance(
    database: GraphDatabase,
    dims: Sequence[int] | None = None,
    quantile: float = 0.75,
) -> AverageScoreThreshold:
    """The paper's experimental relevance rule (Sec. 8.2.1).

    A graph is relevant when its feature-space score (mean over ``dims``,
    defaulting to all dimensions) falls in the top ``1 - quantile`` fraction
    of the database — the "first quartile" rule with the default
    ``quantile=0.75``.
    """
    require(0.0 < quantile < 1.0, f"quantile must be in (0, 1), got {quantile}")
    if dims is None:
        dims = range(database.num_features)
    dims = tuple(int(d) for d in dims)
    scores = database.features[:, list(dims)].mean(axis=1)
    return AverageScoreThreshold(dims, _linear_quantile(scores, quantile))


def _linear_quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` under numpy's default linear rule, bit
    for bit, by one partition: ``np.quantile`` imports ``numpy.ma`` on a
    process's first call, and the query path needs nothing of it.

    The rule: index ``(n − 1)·q``; between its neighbours ``x ≤ y`` with
    ``d = y − x`` and fraction ``t``, ``x + d·t`` — or ``y − d·(1 − t)``
    when ``t ≥ 0.5``; at or above the last index, the maximum.
    """
    index = (values.size - 1) * q
    if index >= values.size - 1:
        return float(values.max())
    low = int(index)
    part = np.partition(values, (low, low + 1))
    x, y = part[low], part[low + 1]
    t = index - low
    d = y - x
    return float(y - d * (1 - t) if t >= 0.5 else x + d * t)
