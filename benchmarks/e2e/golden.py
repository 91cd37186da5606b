"""Reference answers: Algorithm 1 over exact θ-neighborhoods.

Every answer a workload collects is compared — ids, gains, π and
|L_q| — against ``repro.core.baseline_greedy``, the paper's greedy over
exactly materialized neighborhoods with smallest-id tie-breaks.  The
reference uses its own distance engine (its own pair cache and star
profiles), so nothing it computes can warm the program under test, and it
runs after the timed phases.

Goldens live in ``golden/<workload>-<scale>-seed<N>.json``.  The seed-11
files are committed; any other seed computes its golden on first use and
leaves it next to them (git-ignored) so a repeat of that seed in the same
checkout skips the recomputation.  A golden whose ``inputs_sha`` does not
match the generated inputs is recomputed, never trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def answer_of(result) -> dict:
    """The comparable part of a ``QueryResult``."""
    return {
        "answer": [int(g) for g in result.answer],
        "gains": [int(g) for g in result.gains],
        "pi": float(result.pi),
        "num_relevant": int(result.num_relevant),
    }


def query_key(state: str, dims, quantile: float, theta: float, k: int) -> str:
    dims = ",".join(str(int(d)) for d in dims)
    return f"{state}|dims={dims}|q={quantile!r}|theta={float(theta)!r}|k={int(k)}"


def inputs_sha(*parts) -> str:
    """Fingerprint of generated inputs: arrays by bytes, the rest as JSON."""
    digest = hashlib.sha256()
    for part in parts:
        if hasattr(part, "tobytes"):
            digest.update(part.tobytes())
        else:
            digest.update(json.dumps(part, sort_keys=True).encode())
    return digest.hexdigest()


class StarReference:
    """``baseline_greedy`` with star edit distance over a (possibly
    growing) graph database; one private engine so pairs evaluated for
    one (θ, k) or database state are reused by the next."""

    def __init__(self, database):
        from repro import DistanceEngine, StarDistance

        self.database = database
        self.distance = StarDistance()
        self.engine = DistanceEngine(self.distance, graphs=database.graphs)

    def expect(self, query_fn, theta: float, k: int) -> dict:
        from repro import baseline_greedy

        return answer_of(baseline_greedy(
            self.database, self.distance, query_fn, theta, k,
            engine=self.engine,
        ))


class VectorReference:
    """``baseline_greedy`` over a vectorized Euclidean range query (same
    float arithmetic as ``MinkowskiMetric(p=2)`` on one pair, so membership
    at the θ boundary agrees bitwise with per-pair verification)."""

    def __init__(self, database, distance, points):
        self.database = database
        self.distance = distance
        self.points = points

    def _range_query(self, gid: int, radius: float):
        import numpy as np

        distances = (
            ((self.points - self.points[int(gid)]) ** 2).sum(axis=1)
            ** (1.0 / 2.0)
        )
        return np.flatnonzero(distances <= radius + 1e-9)

    def expect(self, query_fn, theta: float, k: int) -> dict:
        from repro import baseline_greedy

        return answer_of(baseline_greedy(
            self.database, self.distance, query_fn, theta, k,
            range_query=self._range_query,
        ))


class GoldenStore:
    """Expected answers of one (workload, scale, seed), loaded or computed."""

    def __init__(self, workload: str, scale: str, seed: int, sha: str,
                 regen: bool = False):
        self.path = GOLDEN_DIR / f"{workload}-{scale}-seed{seed}.json"
        self.header = {
            "workload": workload, "scale": scale, "seed": seed,
            "inputs_sha": sha,
        }
        self.answers: dict[str, dict] = {}
        self.source = "computed"
        self.compute_s = 0.0
        self._dirty = False
        if not regen and self.path.exists():
            document = json.loads(self.path.read_text())
            if all(document.get(k) == v for k, v in self.header.items()):
                self.answers = document["answers"]
                self.source = "file"

    def expect(self, key: str, compute) -> dict:
        """The golden for ``key``; ``compute()`` fills a miss."""
        if key not in self.answers:
            started = time.perf_counter()
            self.answers[key] = compute()
            self.compute_s += time.perf_counter() - started
            self._dirty = True
        return self.answers[key]

    def save(self) -> None:
        if not self._dirty:
            return
        GOLDEN_DIR.mkdir(exist_ok=True)
        document = dict(self.header, answers=self.answers)
        tmp = self.path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, self.path)
        self._dirty = False
