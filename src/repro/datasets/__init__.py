"""Deterministic synthetic analogs of the paper's datasets (DESIGN.md §3)."""

from repro.datasets.dud import dud_like
from repro.datasets.dblp import dblp_like
from repro.datasets.amazon import amazon_like
from repro.datasets.callgraphs import bug_class, callgraphs_like, recency_query
from repro.datasets.cascades import cascades_like, origin_community, topic_query
from repro.datasets.sbm import CommunityNetwork, extract_two_hop, sample_block_model
from repro.datasets.registry import (
    GENERATORS,
    DatasetSpec,
    calibrate_theta,
    load,
)

__all__ = [
    "dud_like",
    "dblp_like",
    "amazon_like",
    "cascades_like",
    "callgraphs_like",
    "recency_query",
    "bug_class",
    "topic_query",
    "origin_community",
    "sample_block_model",
    "extract_two_hop",
    "CommunityNetwork",
    "GENERATORS",
    "DatasetSpec",
    "calibrate_theta",
    "load",
]
