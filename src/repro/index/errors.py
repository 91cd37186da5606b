"""Typed errors for index query-time misuse.

Build/load failures live in :mod:`repro.resilience.errors` (they are
persistence problems); this module holds errors about *queries* that the
index cannot answer honestly as asked.
"""

from __future__ import annotations


class ReadOnlyIndexError(TypeError):
    """A mutation method was called on an immutable index.

    ``NBIndex`` and ``ShardedIndex`` objects opened the ordinary way are
    read-only views of an offline build; mutations need the delta layer.
    Reopen through :func:`repro.open_index` with ``mutable=True`` to get
    a :class:`~repro.delta.MutableIndex` that accepts them.
    """

    def __init__(self, operation: str, index_kind: str):
        self.operation = operation
        self.index_kind = index_kind
        super().__init__(
            f"{index_kind}.{operation}() needs a mutable index; this one "
            f"is read-only — reopen it with "
            f"repro.open_index(path, mutable=True)"
        )


class OffLadderThetaError(ValueError):
    """θ lies above every indexed π̂ rung.

    The π̂-vector machinery answers any θ *covered* by the ladder (the
    smallest indexed rung ≥ θ is a valid upper bound, Def. 6); a θ above
    the top rung has no indexed bound at all, and silently falling back to
    the trivial ``|L_q|`` bound turns the index into a linear scan without
    telling anyone.  The error lists the nearest indexed rungs so callers
    can snap the query to one, and names the two remedies: re-ladder the
    existing index (:meth:`~repro.index.NBIndex.set_ladder` — free, the
    tree and embedding are ladder-independent) or rebuild with
    ``thresholds`` covering the θ range actually queried.
    """

    def __init__(self, theta: float, ladder):
        values = tuple(
            float(v) for v in (ladder.values if hasattr(ladder, "values") else ladder)
        )
        theta = float(theta)
        nearest = tuple(sorted(sorted(values, key=lambda v: abs(v - theta))[:3]))
        self.theta = theta
        self.ladder_max = max(values)
        self.nearest_rungs = nearest
        rungs = ", ".join(f"{v:g}" for v in nearest)
        super().__init__(
            f"theta={theta:g} is above the indexed pi-hat ladder "
            f"(max rung {self.ladder_max:g}; nearest indexed rungs: "
            f"[{rungs}]); query at an indexed rung, re-ladder with "
            f"set_ladder(), or rebuild with thresholds covering this theta"
        )
