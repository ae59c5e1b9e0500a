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

Four backends conform today:

* ``grid`` — :class:`~repro.index.grid_index.GridIndex`, the paper's
  θr-diagonal uniform grid (default; also the SGS cell substrate), with
  sphere-pruned, cached candidate gathering;
* ``kdtree`` — :class:`KDTreeProvider`, a dynamic wrapper that keeps a
  balanced static :class:`~repro.index.kdtree.KDTree` over committed
  objects plus a small insertion buffer, rebuilding amortized;
* ``rtree`` — :class:`RTreeProvider`, point entries in the Guttman
  :class:`~repro.index.rtree.RTree` with exact distance refinement;
* ``auto`` — :class:`AutoProvider`, which picks grid vs k-d tree vs
  R-tree from the dimensionality (size of the pruned offset table),
  the observed cell occupancy, and the removal churn, switching
  adaptively as the stream evolves.

All backends answer the *same* fixed-radius (θr) queries and are
checked object-for-object identical by the parity test suite.
"""

from __future__ import annotations

import math
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

from repro.geometry.coordstore import CoordStore, within_sq_range
from repro.geometry.mbr import MBR
from repro.index.grid_index import (
    CellMap,
    GridIndex,
    sphere_pruned_offsets,
)
from repro.index.kdtree import KDTree
from repro.index.rtree import RTree
from repro.streams.objects import StreamObject

#: One batched query: the probe coordinates and the oid to exclude
#: (typically the probe object itself, already inserted).
Query = Tuple[Sequence[float], int]

#: Backward-compatible alias. Exact refinement — squared distance
#: <= sq_range, boundary inclusive, canonical summation order — lives in
#: :mod:`repro.geometry.coordstore`; every backend refines through the
#: same kernels and the parity suite pins the agreement.
_within_sq_range = within_sq_range


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


class _FallbackBatchMixin:
    """Default ``range_query_many``: one single-probe query per entry.

    Backends with a genuinely batched plan (the grid shares candidate
    gathering across probes in the same cell) override this.
    """

    def range_query_many(
        self, queries: Sequence[Query]
    ) -> List[List[StreamObject]]:
        return [
            self.range_query(coords, exclude_oid=exclude_oid)
            for coords, exclude_oid in queries
        ]


class KDTreeProvider(_FallbackBatchMixin):
    """Dynamic neighbor search over the static balanced k-d tree.

    Mutations are cheap: inserts land in a buffer scanned linearly at
    query time, removals tombstone entries still inside the committed
    tree. Once the churn (buffer + tombstones) exceeds
    ``rebuild_fraction`` of the live population (and ``min_buffer``),
    the tree is rebuilt from the live objects — the classic amortized
    logarithmic-rebuilding scheme, O(log n) average query with O(n log n)
    rebuild cost spread over O(n) mutations.
    """

    def __init__(
        self,
        theta_range: float,
        dimensions: int,
        rebuild_fraction: float = 0.25,
        min_buffer: int = 64,
    ):
        if theta_range <= 0:
            raise ValueError("theta_range must be positive")
        if dimensions < 1:
            raise ValueError("dimensions must be positive")
        self.theta_range = float(theta_range)
        self.dimensions = int(dimensions)
        self._rebuild_fraction = float(rebuild_fraction)
        self._min_buffer = int(min_buffer)
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
        if churn > self._rebuild_fraction * max(1, len(self._objects)):
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
        return super().range_query_many(queries)

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[StreamObject]:
        return iter(list(self._objects.values()))


class RTreeProvider(_FallbackBatchMixin):
    """Neighbor search through the Guttman R-tree.

    Objects are stored as degenerate point MBRs; a range query searches
    the tree with the bounding box of the θr-ball and refines candidates
    with the exact squared distance.
    """

    def __init__(
        self,
        theta_range: float,
        dimensions: int,
        max_entries: int = 8,
    ):
        if theta_range <= 0:
            raise ValueError("theta_range must be positive")
        if dimensions < 1:
            raise ValueError("dimensions must be positive")
        self.theta_range = float(theta_range)
        self.dimensions = int(dimensions)
        self._tree = RTree(max_entries=max_entries)
        self._entries: Dict[int, Tuple[MBR, StreamObject]] = {}
        # Leaf-entry refinement: the tree's candidate list is refined in
        # one store kernel call per query.
        self._store = CoordStore(self.dimensions)
        #: Gathering telemetry (candidate-set bench): probes answered
        #: and leaf entries the ball-box search handed to refinement.
        self.stats = {"queries": 0, "candidates": 0}

    def insert(self, obj: StreamObject) -> None:
        # Store first: it validates (duplicate oid, dimensionality) and
        # raises before the tree or the entry map is touched.
        self._store.add(obj)
        box = MBR.from_point(obj.coords)
        self._tree.insert(box, obj)
        self._entries[obj.oid] = (box, obj)

    def remove(self, obj: StreamObject) -> None:
        entry = self._entries.pop(obj.oid, None)
        if entry is None:
            raise KeyError(f"object {obj.oid} not present in r-tree")
        self._tree.delete(entry[0], entry[1])
        self._store.remove(obj.oid)

    def purge_expired(self, window_index: int) -> int:
        expired = [
            obj
            for _, obj in self._entries.values()
            if obj.last_window < window_index
        ]
        for obj in expired:
            self.remove(obj)
        return len(expired)

    def range_query(
        self, coords: Sequence[float], exclude_oid: int = -1
    ) -> List[StreamObject]:
        radius = self.theta_range
        ball = MBR(
            tuple(value - radius for value in coords),
            tuple(value + radius for value in coords),
        )
        candidates = self._tree.search(ball)
        self.stats["queries"] += 1
        self.stats["candidates"] += len(candidates)
        return self._store.refine(
            candidates, coords, radius * radius, exclude_oid
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[StreamObject]:
        return iter([obj for _, obj in self._entries.values()])


class AutoProvider:
    """Adaptive backend selection: grid vs k-d tree, by observed shape.

    The grid wins when its neighbor-cell walk is cheap or when cells
    are densely occupied (one walk gathers many candidates that refine
    in one kernel sweep); the k-d tree wins on sparse high-dimensional
    data. The rule below still prices the walk by the size of the
    sphere-pruned offset table, which the grid's coordinate trie no
    longer probes: on the Figure-7 4-D STT cases the grid now beats
    the k-d tree it used to lose to, so ``auto`` starts those on the
    slower backend (table and verdict: ROADMAP item 6). The rule:

    * at construction, if the memoized
      :func:`~repro.index.grid_index.sphere_pruned_offsets` table has at
      most ``walk_budget`` entries the grid is chosen for good (its walk
      is cheap at any occupancy); otherwise the k-d tree starts;
    * while running, a :class:`~repro.index.grid_index.CellMap` observes
      mean occupancy of the occupied θr-cells; every ``check_interval``
      mutations the choice is revisited with a hysteresis band
      (``>= dense_occupancy`` switches to the grid,
      ``< sparse_occupancy`` back to the trees) and a switch rebuilds
      the new backend from the live objects;
    * among the trees, the R-tree is picked over the k-d tree when the
      workload is *very* sparse (mean occupancy below
      ``rtree_occupancy`` — mostly singleton cells, where the R-tree's
      ball-box search visits few leaves) **and** mutation-heavy (the
      fraction of removals/purges among recent mutations is at least
      ``rtree_churn``): the R-tree deletes in place while the k-d tree
      tombstones and pays amortized full rebuilds. A half-churn
      hysteresis keeps it from flapping back to the k-d tree on a
      single quiet interval.

    The observer CellMap doubles as the SGS cell substrate: consumers
    discover it through :func:`cell_substrate`, so C-SGS on ``auto``
    keeps exactly one cell bookkeeping structure, as with the plain
    grid backend. All backends are answer-identical (the parity and
    golden suites pin it), so a switch is a pure performance decision.
    """

    def __init__(
        self,
        theta_range: float,
        dimensions: int,
        walk_budget: int = 200,
        check_interval: int = 256,
        sparse_occupancy: float = 2.0,
        dense_occupancy: float = 4.0,
        rtree_occupancy: float = 1.15,
        rtree_churn: float = 0.35,
    ):
        if theta_range <= 0:
            raise ValueError("theta_range must be positive")
        if dimensions < 1:
            raise ValueError("dimensions must be positive")
        if check_interval < 1:
            raise ValueError("check_interval must be positive")
        if not 0 < sparse_occupancy <= dense_occupancy:
            raise ValueError(
                "need 0 < sparse_occupancy <= dense_occupancy"
            )
        if rtree_occupancy > sparse_occupancy:
            raise ValueError(
                "rtree_occupancy must not exceed sparse_occupancy"
            )
        if not 0 < rtree_churn <= 1:
            raise ValueError("rtree_churn must be in (0, 1]")
        self.theta_range = float(theta_range)
        self.dimensions = int(dimensions)
        #: Occupancy observer and SGS cell substrate (maintained here).
        self.cells = CellMap(theta_range, dimensions)
        reach = int(math.ceil(math.sqrt(self.dimensions)))
        self.walk_cost = len(
            sphere_pruned_offsets(
                self.dimensions, reach, self.cells.side / self.theta_range
            )
        )
        self._walk_budget = int(walk_budget)
        self._check_interval = int(check_interval)
        self._sparse_occupancy = float(sparse_occupancy)
        self._dense_occupancy = float(dense_occupancy)
        self._rtree_occupancy = float(rtree_occupancy)
        self._rtree_churn = float(rtree_churn)
        self.backend_name = (
            "grid" if self.walk_cost <= self._walk_budget else "kdtree"
        )
        self._inner = self._make(self.backend_name)
        self.switches = 0
        self._mutations = 0
        self._recent_removals = 0
        self._carried_stats: Dict[str, int] = {}

    def _make(self, name: str):
        return BACKENDS[name](self.theta_range, self.dimensions)

    def _switch(self, name: str) -> None:
        old = self._inner
        for key, value in old.stats.items():
            self._carried_stats[key] = self._carried_stats.get(key, 0) + value
        replacement = self._make(name)
        for obj in old:
            replacement.insert(obj)
        self._inner = replacement
        self.backend_name = name
        self.switches += 1

    def _note_mutations(self, count: int = 1, removals: int = 0) -> None:
        self._mutations += count
        self._recent_removals += removals
        if self._mutations >= self._check_interval:
            self._evaluate()
            self._mutations = 0
            self._recent_removals = 0

    def _tree_choice(self, occupancy: float) -> str:
        """Which tree serves a sparse workload: the k-d tree by default,
        the R-tree when cells are near-singleton *and* churn is heavy
        (in-place deletion beats tombstone-and-rebuild)."""
        churn = self._recent_removals / max(1, self._mutations)
        if self.backend_name == "rtree":
            # Hysteresis: stay until churn halves or occupancy recovers.
            if (
                occupancy < self._rtree_occupancy
                and churn >= self._rtree_churn / 2
            ):
                return "rtree"
            return "kdtree"
        if occupancy < self._rtree_occupancy and churn >= self._rtree_churn:
            return "rtree"
        return "kdtree"

    def _evaluate(self) -> None:
        if self.walk_cost <= self._walk_budget:
            return  # the walk is cheap at any occupancy: the grid stays
        occupied = self.cells.occupied_count()
        if not occupied:
            return
        occupancy = len(self._inner) / occupied
        if occupancy >= self._dense_occupancy:
            if self.backend_name != "grid":
                self._switch("grid")
        elif occupancy < self._sparse_occupancy:
            choice = self._tree_choice(occupancy)
            if self.backend_name != choice:
                self._switch(choice)

    @property
    def stats(self) -> Dict[str, int]:
        """Gathering telemetry, aggregated across backend switches."""
        merged = dict(self._carried_stats)
        for key, value in self._inner.stats.items():
            merged[key] = merged.get(key, 0) + value
        return merged

    def insert(self, obj: StreamObject):
        # The inner backend validates (duplicate oid, dimensionality)
        # and raises before the observer CellMap is touched.
        self._inner.insert(obj)
        coord = self.cells.insert(obj)
        self._note_mutations()
        return coord

    def remove(self, obj: StreamObject) -> None:
        self._inner.remove(obj)  # raises before the observer is touched
        self.cells.remove(obj)
        self._note_mutations(removals=1)

    def purge_expired(self, window_index: int) -> int:
        purged = self._inner.purge_expired(window_index)
        self.cells.purge_expired(window_index)
        if purged:
            self._note_mutations(purged, removals=purged)
        return purged

    def range_query(
        self, coords: Sequence[float], exclude_oid: int = -1
    ) -> List[StreamObject]:
        return self._inner.range_query(coords, exclude_oid=exclude_oid)

    def range_query_many(
        self, queries: Sequence[Query]
    ) -> List[List[StreamObject]]:
        return self._inner.range_query_many(queries)

    def __len__(self) -> int:
        return len(self._inner)

    def __iter__(self) -> Iterator[StreamObject]:
        return iter(self._inner)


def cell_substrate(provider) -> Optional[CellMap]:
    """The :class:`CellMap` a provider itself maintains, if any.

    The grid backend *is* its cell map; the ``auto`` backend maintains
    an observer CellMap alongside whichever search backend is active.
    Consumers that need the SGS cell substrate (the tracker, shared
    execution) use this to avoid double bookkeeping; ``None`` means the
    backend is search-only (k-d tree, R-tree) and the consumer keeps its
    own CellMap.
    """
    if isinstance(provider, CellMap):
        return provider
    cells = getattr(provider, "cells", None)
    return cells if isinstance(cells, CellMap) else None


#: Registry of selectable backends; config.py and the CLI validate
#: against these names.
BACKENDS = {
    "auto": AutoProvider,
    "grid": GridIndex,
    "kdtree": KDTreeProvider,
    "rtree": RTreeProvider,
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
