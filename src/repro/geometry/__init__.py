"""Geometric primitives shared by the clustering and indexing substrates."""

from repro.geometry.coordstore import (
    HAVE_NUMPY,
    CandidateBatch,
    CoordStore,
    canonical_sq_dist,
    within_sq_range,
)
from repro.geometry.distance import (
    euclidean_distance,
    squared_euclidean_distance,
)
from repro.geometry.mbr import MBR

__all__ = [
    "HAVE_NUMPY",
    "MBR",
    "CandidateBatch",
    "CoordStore",
    "canonical_sq_dist",
    "euclidean_distance",
    "squared_euclidean_distance",
    "within_sq_range",
]
