"""Pluggable neighbor-search backends: the ``NeighborProvider`` seam.

The paper's central cost argument (Section 5.3) is that range-query
search dominates per-object insertion cost in C-SGS, Extra-N, and
incremental DBSCAN alike. This module turns that search into a
first-class, swappable subsystem: every consumer of neighbor search
(``NeighborhoodTracker``, C-SGS, Extra-N, incremental DBSCAN, shared
multi-query execution) is written against the :class:`NeighborProvider`
protocol rather than a concrete index, and backends are selected by name
through :func:`make_provider` (``config.py`` and the CLI expose the same
names).

Two backends conform:

* ``grid`` — :class:`~repro.index.grid_index.GridIndex`, the paper's
  θr-diagonal uniform grid (default; also the SGS cell substrate),
  whose neighbour-cell walk follows the occupied cells;
* ``kdtree`` — :class:`KDTreeProvider`, a dynamic wrapper that keeps a
  balanced static :class:`~repro.index.kdtree.KDTree` over committed
  objects plus a small insertion buffer, rebuilding amortized. It wins
  from about 8-D on and on sparse streams
  (``benchmarks/bench_index_backends.py``).

Both backends answer the *same* fixed-radius (θr) queries and are
checked object-for-object identical by the parity test suite.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.geometry.coordstore import CoordStore
from repro.index.grid_index import CellMap, GridIndex
from repro.index.kdtree import KDTree
from repro.streams.objects import StreamObject

#: One batched query: the probe coordinates and the oid to exclude
#: (typically the probe object itself, already inserted).
Query = Tuple[Sequence[float], int]


@runtime_checkable
class NeighborProvider(Protocol):
    """What the clustering layer requires of a neighbor-search backend.

    The query radius θr is fixed at construction (it is a query
    parameter, not a per-call one — every consumer issues the same
    radius for the lifetime of a query pipeline).
    """

    theta_range: float
    dimensions: int

    def insert(self, obj: StreamObject) -> object: ...

    def remove(self, obj: StreamObject) -> None: ...

    def purge_expired(self, window_index: int) -> int: ...

    def range_query(
        self, coords: Sequence[float], exclude_oid: int = -1
    ) -> List[StreamObject]: ...

    def range_query_many(
        self, queries: Sequence[Query]
    ) -> List[List[StreamObject]]: ...

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[StreamObject]: ...


#: Churn share of the live population that triggers a k-d tree rebuild,
#: and the churn below which no rebuild happens at all.
REBUILD_FRACTION = 0.25
MIN_BUFFER = 64


class KDTreeProvider:
    """Dynamic neighbor search over the static balanced k-d tree.

    Mutations are cheap: inserts land in a buffer scanned linearly at
    query time, removals tombstone entries still inside the committed
    tree. Once the churn (buffer + tombstones) exceeds
    ``REBUILD_FRACTION`` of the live population (and ``MIN_BUFFER``),
    the tree is rebuilt from the live objects — the classic amortized
    logarithmic-rebuilding scheme, O(log n) average query with O(n log n)
    rebuild cost spread over O(n) mutations.
    """

    def __init__(self, theta_range: float, dimensions: int):
        if theta_range <= 0:
            raise ValueError("theta_range must be positive")
        if dimensions < 1:
            raise ValueError("dimensions must be positive")
        self.theta_range = float(theta_range)
        self.dimensions = int(dimensions)
        self._min_buffer = MIN_BUFFER  # tests lower it to force commits
        self._objects: Dict[int, StreamObject] = {}
        self._tree: Optional[KDTree] = None
        self._pending: Dict[int, StreamObject] = {}
        # Insertion-buffer coordinates, scanned with one store kernel
        # call per query instead of a per-point Python loop.
        self._buffer = CoordStore(self.dimensions)
        self._stale = 0  # removed objects still present in _tree
        self.rebuilds = 0
        #: Gathering telemetry (candidate-set bench): probes answered
        #: and candidate rows scanned (tree leaves + insertion buffer).
        self.stats = {"queries": 0, "candidates": 0}

    def insert(self, obj: StreamObject) -> None:
        # Buffer first: it validates (duplicate oid, dimensionality) and
        # raises before the membership dicts are touched.
        self._buffer.add(obj)
        self._objects[obj.oid] = obj
        self._pending[obj.oid] = obj
        self._maybe_rebuild()

    def remove(self, obj: StreamObject) -> None:
        if self._objects.pop(obj.oid, None) is None:
            raise KeyError(f"object {obj.oid} not present in kd-tree")
        if self._pending.pop(obj.oid, None) is None:
            self._stale += 1
        else:
            self._buffer.remove(obj.oid)
        self._maybe_rebuild()

    def purge_expired(self, window_index: int) -> int:
        expired = [
            obj
            for obj in self._objects.values()
            if obj.last_window < window_index
        ]
        # Tombstone directly instead of calling remove(): one rebuild
        # decision after the sweep, not one per expired object.
        for obj in expired:
            del self._objects[obj.oid]
            if self._pending.pop(obj.oid, None) is None:
                self._stale += 1
            else:
                self._buffer.remove(obj.oid)
        if expired:
            self._maybe_rebuild()
        return len(expired)

    def _maybe_rebuild(self) -> None:
        churn = len(self._pending) + self._stale
        if churn <= self._min_buffer:
            return
        if churn > REBUILD_FRACTION * max(1, len(self._objects)):
            self._rebuild()

    def _rebuild(self) -> None:
        self.rebuilds += 1
        if self._objects:
            self._tree = KDTree(list(self._objects.values()), self.dimensions)
        else:
            self._tree = None
        self._pending = {}
        self._buffer = CoordStore(self.dimensions)
        self._stale = 0

    def range_query(
        self, coords: Sequence[float], exclude_oid: int = -1
    ) -> List[StreamObject]:
        result: List[StreamObject] = []
        scanned = len(self._buffer)
        if self._tree is not None:
            scanned -= self._tree.candidates_scanned
            for obj in self._tree.range_query(
                coords, self.theta_range, exclude_oid=exclude_oid
            ):
                # Skip tombstoned entries the tree still holds; the
                # pending buffer wins when an oid was removed and
                # re-inserted before a rebuild (the buffer scan below
                # reports it, so counting the stale copy would duplicate).
                if obj.oid in self._pending:
                    continue
                if self._objects.get(obj.oid) is obj:
                    result.append(obj)
            scanned += self._tree.candidates_scanned
        sq_range = self.theta_range * self.theta_range
        result.extend(
            self._buffer.within_radius(coords, sq_range, exclude_oid)
        )
        self.stats["queries"] += 1
        self.stats["candidates"] += scanned
        return result

    def range_query_many(
        self, queries: Sequence[Query]
    ) -> List[List[StreamObject]]:
        # Commit the pending buffer before a batch when the batch's
        # linear scans over it would cost more than one O(n log n)
        # rebuild; small slides over large trees keep the buffer.
        churn = len(self._pending) + self._stale
        if churn > self._min_buffer:
            n = max(len(self._objects), 2)
            if len(queries) * churn > n * n.bit_length():
                self._rebuild()
        return [
            self.range_query(coords, exclude_oid=exclude_oid)
            for coords, exclude_oid in queries
        ]

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[StreamObject]:
        return iter(list(self._objects.values()))


def cell_substrate(provider) -> Optional[CellMap]:
    """The :class:`CellMap` a provider itself maintains, if any.

    The grid backend *is* its cell map. Consumers that need the SGS
    cell substrate (the tracker, shared execution) use this to avoid
    double bookkeeping; ``None`` means the backend is search-only (the
    k-d tree) and the consumer keeps its own CellMap.
    """
    return provider if isinstance(provider, CellMap) else None


#: Registry of selectable backends; config.py and the CLI validate
#: against these names.
BACKENDS = {
    "grid": GridIndex,
    "kdtree": KDTreeProvider,
}


def available_backends() -> Tuple[str, ...]:
    """Names accepted by :func:`make_provider` (sorted, for help text)."""
    return tuple(sorted(BACKENDS))


def validate_backend(backend: str) -> str:
    """Return ``backend`` if registered, else raise the canonical error."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown index backend {backend!r}; "
            f"choose one of {', '.join(available_backends())}"
        )
    return backend


def make_provider(
    backend: str, theta_range: float, dimensions: int
) -> NeighborProvider:
    """Construct the named neighbor-search backend."""
    return BACKENDS[validate_backend(backend)](theta_range, dimensions)


def resolve_provider(
    provider: Optional[NeighborProvider],
    backend: Optional[str],
    theta_range: float,
    dimensions: int,
) -> NeighborProvider:
    """Resolve the provider/backend constructor convention every
    consumer shares: an instance and a name are mutually exclusive, and
    neither means the default grid backend."""
    if provider is not None and backend is not None:
        raise ValueError("pass either a provider instance or a backend name")
    if provider is None:
        return make_provider(backend or "grid", theta_range, dimensions)
    return provider


def batched_neighborhoods(
    provider: NeighborProvider, objects: Sequence[StreamObject]
):
    """Bulk-insert ``objects`` and answer them with one batched pass.

    Yields ``(obj, placed, known)`` per object in arrival order, where
    ``placed`` is whatever ``provider.insert`` returned (the cell coord
    for cell-backed providers) and ``known`` is the neighbor list
    filtered to objects already yielded — i.e. the later half of each
    intra-batch pair is credited when the later object is processed, so
    consuming this generator is equivalent to object-at-a-time
    insert-then-query. Anything else the provider returns (e.g.
    pre-populated objects) flows through unchanged.

    The whole batch is inserted before the first yield; if the consumer
    raises (or abandons the generator) mid-iteration, the remaining
    objects stay in the provider without consumer-side state. Callers
    treating a consumption failure as recoverable must remove the
    unprocessed objects themselves.
    """
    objects = list(objects)
    placed = [provider.insert(obj) for obj in objects]
    neighbor_lists = provider.range_query_many(
        [(obj.coords, obj.oid) for obj in objects]
    )
    pending = {obj.oid for obj in objects}
    for obj, ret, neighbors in zip(objects, placed, neighbor_lists):
        pending.discard(obj.oid)
        yield obj, ret, [nb for nb in neighbors if nb.oid not in pending]
