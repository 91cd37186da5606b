"""Deterministic random-number-generator plumbing.

Every stochastic component in the library (dataset generators, vantage point
selection, the threshold ladder's pair sample, query sampling in benchmarks)
accepts a ``seed`` argument that may be:

* ``None`` — a fresh, OS-seeded generator (non-reproducible),
* an ``int`` — a fixed seed,
* an existing :class:`numpy.random.Generator` — used as-is, which lets a
  caller thread a single generator through a whole pipeline.

Centralizing the coercion here keeps signatures short and behaviour uniform.
"""

from __future__ import annotations

import numpy as np

SeedLike = "int | None | np.random.Generator"


def ensure_rng(seed: "int | None | np.random.Generator") -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    >>> rng = ensure_rng(7)
    >>> rng2 = ensure_rng(rng)
    >>> rng is rng2
    True
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    Children are seeded from the parent stream, so a pipeline seeded once is
    reproducible end-to-end even when sub-components consume randomness in
    different orders across versions.
    """
    seeds = rng.integers(0, 2**63 - 1, size=count)
    return [np.random.default_rng(int(s)) for s in seeds]
