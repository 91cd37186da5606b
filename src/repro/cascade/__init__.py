"""repro.cascade — the per-query threshold filter and the ε-relaxed
approximate mode.  See ``docs/cascade.md``.
"""

from repro.cascade.pipeline import (
    BLOCK_EVALS,
    EpsilonError,
    FilterCascade,
    validate_epsilon,
)

__all__ = ["BLOCK_EVALS", "EpsilonError", "FilterCascade", "validate_epsilon"]
