"""Incremental DBSCAN over sliding windows (Ester et al., VLDB 1998).

The paper cites incremental density-based clustering ([7]) as the
warehouse-era approach: apply every insertion *and every deletion* to
the cluster structure one tuple at a time. Over sliding windows this
means each slide performs ``slide`` insertions plus ``slide`` deletions
— and deletions are the expensive part, since removing an object can
demote cores and split clusters, forcing a partial re-expansion.

This implementation follows the IncDBSCAN structure:

* **Insertion**: the new object and its neighbors gain neighbor counts;
  newly promoted cores connect their neighborhoods, possibly merging
  clusters (union-find absorbs merges cheaply).
* **Deletion**: neighbors lose a count; demoted cores invalidate the
  labels of everything density-reachable through them. Affected
  regions are re-expanded from their remaining cores (a bounded local
  re-clustering; splits fall out naturally).

It serves as the per-tuple-incremental baseline of ablation E10: the
lifespan-based C-SGS pre-handles all expirations at insertion time and
therefore does none of the deletion work this algorithm must do.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.clustering.cluster import Cluster
from repro.index.provider import NeighborProvider, resolve_provider
from repro.streams.objects import StreamObject
from repro.streams.windows import WindowBatch


class IncrementalDBSCAN:
    """Maintains DBSCAN clusters under object insertions and deletions.

    Neighbor search runs through any
    :class:`~repro.index.provider.NeighborProvider` backend (grid by
    default) — this baseline issues *many* range queries per deletion,
    which is exactly the cost profile ablation E10 contrasts with the
    lifespan-based methods.
    """

    def __init__(
        self,
        theta_range: float,
        theta_count: int,
        dimensions: int,
        provider: Optional[NeighborProvider] = None,
        backend: Optional[str] = None,
    ):
        self.theta_range = float(theta_range)
        self.theta_count = int(theta_count)
        self.dimensions = int(dimensions)
        self.grid = resolve_provider(
            provider, backend, theta_range, dimensions
        )
        self._objects: Dict[int, StreamObject] = {}
        self._neighbor_count: Dict[int, int] = {}
        # Cluster labels for core objects only; edges resolve at output.
        self._label: Dict[int, int] = {}
        self._next_label = 0
        self.deletions_processed = 0
        self.reexpansions = 0

    # ------------------------------------------------------------------
    # Primitive updates
    # ------------------------------------------------------------------

    def _is_core(self, oid: int) -> bool:
        return self._neighbor_count.get(oid, 0) >= self.theta_count

    def insert(self, obj: StreamObject) -> None:
        """Add one object, merging clusters where its neighborhood
        connects previously separate cores."""
        self.grid.insert(obj)
        self._objects[obj.oid] = obj
        neighbors = self.grid.range_query(obj.coords, exclude_oid=obj.oid)
        self._neighbor_count[obj.oid] = len(neighbors)
        promoted: List[StreamObject] = []
        for nb in neighbors:
            self._neighbor_count[nb.oid] += 1
            if (
                self._neighbor_count[nb.oid] == self.theta_count
                and nb.oid not in self._label
            ):
                promoted.append(nb)
        if self._is_core(obj.oid):
            promoted.append(obj)
        for core in promoted:
            self._expand_from(core)

    def _expand_from(self, seed: StreamObject) -> None:
        """Label/merge the connected core component around a new core."""
        if not self._is_core(seed.oid):
            return
        # Collect adjacent core labels to merge with.
        neighbors = self.grid.range_query(seed.coords, exclude_oid=seed.oid)
        adjacent_labels = {
            self._label[nb.oid]
            for nb in neighbors
            if nb.oid in self._label and self._is_core(nb.oid)
        }
        if seed.oid in self._label:
            adjacent_labels.add(self._label[seed.oid])
        if adjacent_labels:
            target = min(adjacent_labels)
        else:
            target = self._next_label
            self._next_label += 1
        self._label[seed.oid] = target
        stale = adjacent_labels - {target}
        if stale:
            for oid, label in list(self._label.items()):
                if label in stale:
                    self._label[oid] = target

    def delete(self, obj: StreamObject) -> None:
        """Remove one object; demotions may split its cluster."""
        self.deletions_processed += 1
        neighbors = self.grid.range_query(obj.coords, exclude_oid=obj.oid)
        self.grid.remove(obj)
        del self._objects[obj.oid]
        del self._neighbor_count[obj.oid]
        was_core = obj.oid in self._label
        self._label.pop(obj.oid, None)
        demoted: List[StreamObject] = []
        for nb in neighbors:
            self._neighbor_count[nb.oid] -= 1
            if (
                self._neighbor_count[nb.oid] == self.theta_count - 1
                and nb.oid in self._label
            ):
                demoted.append(nb)
        for nb in demoted:
            self._label.pop(nb.oid, None)
        if was_core or demoted:
            if self._locally_connected([obj] + demoted):
                return
            # The component(s) around the removal must be re-derived:
            # invalidate every label in the affected component and
            # re-expand from the remaining cores.
            self._reexpand_around([obj] + demoted)

    def _locally_connected(
        self, epicenters: List[StreamObject], depth_limit: int = 3
    ) -> bool:
        """Cheap common-case check: if the surviving core neighbors of
        the removal are still mutually reachable through a short core
        path, the component cannot have split and labels stay valid.
        (An interior deletion terminates here; boundary deletions fall
        through to the full re-expansion.)"""
        seeds: Set[int] = set()
        seed_objs: List[StreamObject] = []
        for center in epicenters:
            for nb in self.grid.range_query(center.coords):
                if self._is_core(nb.oid) and nb.oid not in seeds:
                    seeds.add(nb.oid)
                    seed_objs.append(nb)
        if len(seeds) <= 1:
            return True
        start = seed_objs[0]
        found = {start.oid}
        frontier = [start]
        for _ in range(depth_limit):
            if seeds <= found:
                return True
            next_frontier: List[StreamObject] = []
            for current in frontier:
                for nb in self.grid.range_query(
                    current.coords, exclude_oid=current.oid
                ):
                    if nb.oid in found or not self._is_core(nb.oid):
                        continue
                    found.add(nb.oid)
                    next_frontier.append(nb)
            frontier = next_frontier
        return seeds <= found

    def _reexpand_around(self, epicenters: List[StreamObject]) -> None:
        """Re-derive labels for the components touching ``epicenters``."""
        self.reexpansions += 1
        affected_labels: Set[int] = set()
        seeds: List[StreamObject] = []
        for center in epicenters:
            for nb in self.grid.range_query(center.coords):
                if nb.oid in self._label:
                    affected_labels.add(self._label[nb.oid])
        if not affected_labels:
            return
        for oid, label in list(self._label.items()):
            if label in affected_labels:
                del self._label[oid]
                seeds.append(self._objects[oid])
        visited: Set[int] = set()
        for seed in seeds:
            if seed.oid in visited or not self._is_core(seed.oid):
                continue
            label = self._next_label
            self._next_label += 1
            stack = [seed]
            visited.add(seed.oid)
            self._label[seed.oid] = label
            while stack:
                current = stack.pop()
                for nb in self.grid.range_query(
                    current.coords, exclude_oid=current.oid
                ):
                    if nb.oid in visited or not self._is_core(nb.oid):
                        continue
                    visited.add(nb.oid)
                    self._label[nb.oid] = label
                    stack.append(nb)

    # ------------------------------------------------------------------
    # Window processing
    # ------------------------------------------------------------------

    def process_batch(self, batch: WindowBatch) -> List[Cluster]:
        """Apply one slide: delete expired objects, insert new ones."""
        expired = [
            obj
            for obj in self._objects.values()
            if obj.last_window < batch.index
        ]
        for obj in expired:
            self.delete(obj)
        for obj in batch.new_objects:
            self.insert(obj)
        return self.clusters(batch.index)

    def clusters(self, window_index: int = -1) -> List[Cluster]:
        """Materialize the current clusters in full representation."""
        by_label: Dict[int, Cluster] = {}
        cluster_index: Dict[int, int] = {}
        for oid, label in self._label.items():
            if label not in by_label:
                cluster_index[label] = len(by_label)
                by_label[label] = Cluster(
                    cluster_index[label], [], [], window_index
                )
            by_label[label].core_objects.append(self._objects[oid])
        for oid, obj in self._objects.items():
            if oid in self._label:
                continue
            touched: Set[int] = set()
            for nb in self.grid.range_query(obj.coords, exclude_oid=oid):
                label = self._label.get(nb.oid)
                if label is not None:
                    touched.add(label)
            for label in touched:
                by_label[label].edge_objects.append(obj)
        return list(by_label.values())

    def __len__(self) -> int:
        return len(self._objects)
