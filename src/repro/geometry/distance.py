"""Distance functions on coordinate tuples.

All clustering code in this package defines the neighbor predicate as
``euclidean_distance(a, b) <= theta_range`` (Section 3.1 of the paper).
The squared variant avoids the square root on hot paths; the Chebyshev
variant supports grid-cell adjacency reasoning.
"""

from __future__ import annotations

import math
from typing import Sequence


def squared_euclidean_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Return the squared Euclidean distance between two points.

    Raises ``ValueError`` if the points have different dimensionality.
    """
    if len(a) != len(b):
        raise ValueError(
            f"dimension mismatch: {len(a)} vs {len(b)}"
        )
    total = 0.0
    for ai, bi in zip(a, b):
        diff = ai - bi
        total += diff * diff
    return total


def euclidean_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Return the Euclidean (L2) distance between two points."""
    return math.sqrt(squared_euclidean_distance(a, b))
