"""Pin the build, not just the answers.

Every kernel or build-loop optimisation promises the *same* index: same
vantage coordinates, same number of exact distances.  The coordinate
hashes were recorded at commit ea45cce, before the star kernel was
rewritten around bit words (dud n = 300, the e2e smoke parameters); the
evaluation counts when the build stopped sampling a threshold ladder,
which left the coordinates untouched (vantage selection draws first).
"""

import hashlib

import numpy as np
import pytest

from repro import NBIndex, StarDistance
from repro.datasets import GENERATORS

_N, _VANTAGE = 300, 8

_PINNED = {
    11: dict(coords="e88a438dfd31b648ef1c31c5f2f5c8a73c1518c3", evaluations=2372),
    12: dict(coords="d5623cafb6dbc5b89cbe0a2cbc130db215ff7994", evaluations=2372),
}


@pytest.mark.parametrize("seed", sorted(_PINNED))
def test_dud_build_is_bit_identical_to_the_recorded_one(seed):
    database = GENERATORS["dud"](num_graphs=_N, seed=seed)
    index = NBIndex.build(
        database, StarDistance(), seed=seed, num_vantage_points=_VANTAGE,
    )
    coords = np.ascontiguousarray(index.embedding.coords)
    assert dict(
        coords=hashlib.sha1(coords.tobytes()).hexdigest(),
        evaluations=index.engine.evaluations,
    ) == _PINNED[seed]


@pytest.mark.parametrize("seed", sorted(_PINNED))
def test_build_pays_only_the_embedding(seed):
    """Random vantage selection costs nothing and the embedding n·|V|
    pairs; every other pair the build asks for would show up here."""
    database = GENERATORS["dud"](num_graphs=_N, seed=seed)
    index = NBIndex.build(
        database, StarDistance(), seed=seed, num_vantage_points=_VANTAGE,
    )
    stats = index.engine.stats()
    assert stats["evaluations"] + stats["cache_hits"] == _N * _VANTAGE
