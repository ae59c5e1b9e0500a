"""Index substrate: pluggable neighbor-search backends + feature grid.

Neighbor search is a first-class, swappable subsystem: the
:class:`~repro.index.provider.NeighborProvider` protocol is what every
clustering consumer is written against, with the ``grid`` and
``kdtree`` backends selectable via
:func:`~repro.index.provider.make_provider`. :class:`RTree` is the
Pattern Base's locational index, not a neighbor-search backend.
"""

from repro.index.feature_grid import FeatureGridIndex
from repro.index.grid_index import (
    CellMap,
    GridIndex,
    cell_side_for_range,
)
from repro.index.kdtree import KDTree
from repro.index.provider import (
    BACKENDS,
    KDTreeProvider,
    NeighborProvider,
    available_backends,
    cell_substrate,
    make_provider,
)
from repro.index.rtree import RTree

__all__ = [
    "BACKENDS",
    "CellMap",
    "FeatureGridIndex",
    "GridIndex",
    "KDTree",
    "KDTreeProvider",
    "NeighborProvider",
    "RTree",
    "available_backends",
    "cell_side_for_range",
    "cell_substrate",
    "make_provider",
]
