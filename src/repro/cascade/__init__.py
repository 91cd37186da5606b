"""repro.cascade — the per-query threshold filter.  See
``docs/cascade.md``.
"""

from repro.cascade.pipeline import BLOCK_EVALS, FilterCascade

__all__ = ["BLOCK_EVALS", "FilterCascade"]
