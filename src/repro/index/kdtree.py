"""A k-d tree for static range-query search.

The streaming algorithms use the uniform grid index (whose cell
decomposition doubles as the SGS substrate), but the summarizers that
post-process a *static* cluster (SkPS's neighborhood coverage, ad-hoc
analyses) only need one-shot range search. A balanced k-d tree built in
``O(n log n)`` offers that without choosing a grid resolution, and the
index ablation compares the two on the library's workloads.

Implementation: median-split construction on alternating axes down to
*bucket leaves* of up to ``leaf_size`` points. Leaf points are laid out
as contiguous row spans of an internal
:class:`~repro.geometry.coordstore.CoordStore`, so leaf refinement runs
through the store's batched kernels (one array sweep per visited leaf on
the vector path) instead of a per-point Python loop. Range queries
descend only into sub-trees whose bounding slabs intersect the query
ball.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.geometry.coordstore import HAVE_NUMPY, CoordStore
from repro.streams.objects import StreamObject


class _Leaf:
    """A bucket of points stored as rows ``[start, stop)`` of the store."""

    __slots__ = ("start", "stop")

    def __init__(self, start: int, stop: int):
        self.start = start
        self.stop = stop


class _Inner:
    """Axis split: left holds coords <= split, right holds >= split."""

    __slots__ = ("axis", "split", "left", "right")

    def __init__(self, axis: int, split: float):
        self.axis = axis
        self.split = split
        self.left: "_Node" = None
        self.right: "_Node" = None


_Node = Optional[Union[_Leaf, _Inner]]


class KDTree:
    """Static, balanced k-d tree over stream objects."""

    def __init__(
        self,
        objects: Sequence[StreamObject],
        dimensions: int,
        leaf_size: Optional[int] = None,
    ):
        if dimensions < 1:
            raise ValueError("dimensions must be positive")
        if leaf_size is not None and leaf_size < 1:
            raise ValueError("leaf_size must be positive")
        self.dimensions = dimensions
        self._size = len(objects)
        # Leaf spans index rows positionally; oids may repeat.
        self._store = CoordStore(dimensions, track_oids=False)
        if leaf_size is None:
            # Vectorized leaves want enough points per span to amortize
            # the kernel call; scalar leaves favour tighter pruning.
            leaf_size = 64 if HAVE_NUMPY else 16
        self.leaf_size = leaf_size
        #: Cumulative leaf rows handed to range-query refinement — the
        #: tree's share of the backend candidate-set telemetry.
        self.candidates_scanned = 0
        self._root: _Node = (
            self._build(list(objects), 0) if objects else None
        )

    def _build(self, objects: List[StreamObject], depth: int) -> _Node:
        if len(objects) <= self.leaf_size:
            start = len(self._store)
            for obj in objects:
                self._store.add(obj)
            return _Leaf(start, start + len(objects))
        axis = depth % self.dimensions
        objects.sort(key=lambda obj: obj.coords[axis])
        median = len(objects) // 2
        node = _Inner(axis, objects[median].coords[axis])
        node.left = self._build(objects[:median], depth + 1)
        node.right = self._build(objects[median:], depth + 1)
        return node

    def __len__(self) -> int:
        return self._size

    def range_query(
        self,
        coords: Sequence[float],
        radius: float,
        exclude_oid: int = -1,
    ) -> List[StreamObject]:
        """All stored objects within ``radius`` of ``coords``."""
        if len(coords) != self.dimensions:
            raise ValueError("query dimensionality mismatch")
        if radius < 0:
            raise ValueError("radius must be non-negative")
        result: List[StreamObject] = []
        if self._root is None:
            return result
        sq_radius = radius * radius
        stack = [self._root]
        while stack:
            node = stack.pop()
            if type(node) is _Leaf:
                self.candidates_scanned += node.stop - node.start
                result.extend(
                    self._store.refine_span(
                        node.start, node.stop, coords, sq_radius, exclude_oid
                    )
                )
                continue
            delta = coords[node.axis] - node.split
            if delta <= radius:  # left slab (coords <= split) reachable
                stack.append(node.left)
            if delta >= -radius:  # right slab (coords >= split) reachable
                stack.append(node.right)
        return result
