"""Exact solver for the connected k-vertex one-center problem."""

from .graph_core import (
    Graph,
    DistanceMatrix,
    EdgePoint,
    InstanceError,
    InternalError,
    Solution,
    all_pairs_distances,
    parse_instance,
    emit_instance,
)

__all__ = [
    "Graph",
    "DistanceMatrix",
    "EdgePoint",
    "InstanceError",
    "InternalError",
    "Solution",
    "all_pairs_distances",
    "parse_instance",
    "emit_instance",
]
