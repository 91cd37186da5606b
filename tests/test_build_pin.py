"""Pin the build, not just the answers.

Every kernel or build-loop optimisation promises the *same* index: same
vantage coordinates, same tree, same number of exact distances.  A change
of tree shape would otherwise surface only as an ``exact_calls_per_query``
drift in the end-to-end benchmark; here it fails in well under a second.
The constants were recorded at commit ea45cce, before the star kernel was
rewritten around bit words (dud n = 300, the e2e smoke parameters).
"""

import hashlib

import numpy as np
import pytest

from repro import NBIndex, StarDistance
from repro.datasets import GENERATORS

_PINNED = {
    11: dict(
        coords="e88a438dfd31b648ef1c31c5f2f5c8a73c1518c3",
        tree="b135be37bab49bdb70995c0de858acb1df8e4b8b",
        exact_distances=3868,
        pruned_by_vantage=2829,
        evaluations=6524,
    ),
    12: dict(
        coords="d5623cafb6dbc5b89cbe0a2cbc130db215ff7994",
        tree="b897d973f09353e9d6a5e48cd017199e0325795a",
        exact_distances=3478,
        pruned_by_vantage=2744,
        evaluations=6145,
    ),
}


@pytest.mark.parametrize("seed", sorted(_PINNED))
def test_dud_build_is_bit_identical_to_the_recorded_one(seed):
    database = GENERATORS["dud"](num_graphs=300, seed=seed)
    index = NBIndex.build(
        database, StarDistance(), seed=seed, num_vantage_points=8, branching=4
    )
    tree = hashlib.sha1()
    for node in index.tree.nodes:
        tree.update(repr((
            int(node.centroid), float(node.radius), float(node.diameter),
            [int(m) for m in node.members],
        )).encode())
    coords = np.ascontiguousarray(index.embedding.coords)
    assert dict(
        coords=hashlib.sha1(coords.tobytes()).hexdigest(),
        tree=tree.hexdigest(),
        exact_distances=index.tree.stats.exact_distances,
        pruned_by_vantage=index.tree.stats.pruned_by_vantage,
        evaluations=index.engine.evaluations,
    ) == _PINNED[seed]
