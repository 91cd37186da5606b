"""Batch distance engine: batched, prefiltered, cached GED evaluation."""

from repro.engine.core import DistanceEngine
from repro.engine.starbatch import (
    BatchStarEvaluator,
    batch_evaluator_for,
    unwrap_distance,
)

__all__ = [
    "DistanceEngine",
    "BatchStarEvaluator",
    "batch_evaluator_for",
    "unwrap_distance",
]
