"""Batch distance engine: batched, prefiltered, cached GED evaluation."""

from repro.engine.core import (
    DistanceEngine,
    batch_evaluator_for,
    unwrap_distance,
)
from repro.engine.starbatch import BatchStarEvaluator

__all__ = [
    "DistanceEngine",
    "BatchStarEvaluator",
    "batch_evaluator_for",
    "unwrap_distance",
]
