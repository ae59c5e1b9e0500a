"""The paper's primary contribution: SGS, lifespan analysis, and C-SGS."""

from repro.core.cells import CellStatus, SkeletalGridCell
from repro.core.csgs import CSGS, WindowOutput
from repro.core.features import ClusterFeatures
from repro.core.lifespan import NeighborhoodTracker, ObjectState
from repro.core.multires import coarsen_sgs
from repro.core.sgs import SGS

__all__ = [
    "CSGS",
    "CellStatus",
    "ClusterFeatures",
    "NeighborhoodTracker",
    "ObjectState",
    "SGS",
    "SkeletalGridCell",
    "WindowOutput",
    "coarsen_sgs",
]
