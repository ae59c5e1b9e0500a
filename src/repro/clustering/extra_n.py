"""Extra-N: neighbor-based pattern detection over sliding windows.

This is the state-of-the-art *extraction-only* baseline the paper
compares C-SGS against (Yang, Rundensteiner, Ward — EDBT 2009). Extra-N
incrementally maintains one *predicted view* of the cluster structure per
future window an alive object participates in (``win/slide`` views in
total). Expirations are pre-handled by the same lifespan analysis C-SGS
uses; cluster structures within each view only ever grow, so each view's
membership can be kept in a union-find that needs no deletions.

Cost profile (and the reason the paper's Figure 7 shows Extra-N's
response time rising with ``win/slide``): every insertion touches all
views the object participates in — O(neighbors x views) union operations
— and every core-career extension replays the object's non-core-career
neighbor list into the newly covered views. C-SGS replaces all of this
with O(neighbors) cell-lifespan updates.

Output per window: clusters in full representation, identical (tested) to
a from-scratch DBSCAN over the window contents.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.clustering.cluster import Cluster
from repro.core.lifespan import NeighborhoodTracker, ObjectState
from repro.streams.windows import WindowBatch


class _UnionFind:
    """Union-find over object ids with path compression."""

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: Dict[int, int] = {}

    def make(self, item: int) -> None:
        if item not in self.parent:
            self.parent[item] = item

    def find(self, item: int) -> int:
        parent = self.parent
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a: int, b: int) -> None:
        self.make(a)
        self.make(b)
        root_a = self.find(a)
        root_b = self.find(b)
        if root_a != root_b:
            self.parent[root_b] = root_a

    def __len__(self) -> int:
        return len(self.parent)


class ExtraN:
    """Incremental density-based clustering with predicted views."""

    def __init__(
        self,
        theta_range: float,
        theta_count: int,
        dimensions: int,
        provider=None,
        backend=None,
    ):
        self.theta_range = float(theta_range)
        self.theta_count = int(theta_count)
        self.dimensions = int(dimensions)
        self.tracker = NeighborhoodTracker(
            theta_range,
            theta_count,
            dimensions,
            on_insert=self._handle_insert,
            on_extension=self._handle_extension,
            provider=provider,
            backend=backend,
            # Extra-N never reads per-cell contents; skip the substrate
            # bookkeeping on non-cell-backed backends.
            maintain_cells=False,
        )
        # One union-find per future window ("view"), created lazily.
        self._views: Dict[int, _UnionFind] = {}

    def _view(self, window: int) -> _UnionFind:
        view = self._views.get(window)
        if view is None:
            view = _UnionFind()
            self._views[window] = view
        return view

    # ------------------------------------------------------------------
    # View maintenance events
    # ------------------------------------------------------------------

    def _handle_insert(
        self, state: ObjectState, neighbors: List[ObjectState]
    ) -> None:
        window = self.tracker.current_window
        oid = state.oid
        if state.core_until >= window:
            for view_index in range(window, state.core_until + 1):
                self._view(view_index).make(oid)
        for nb in neighbors:
            joint = min(state.core_until, nb.core_until)
            for view_index in range(window, joint + 1):
                self._view(view_index).union(oid, nb.oid)

    def _handle_extension(
        self,
        state: ObjectState,
        old_core_until: int,
        new_core_until: int,
        snapshot: List[ObjectState],
    ) -> None:
        window = self.tracker.current_window
        oid = state.oid
        start = max(old_core_until + 1, window)
        for view_index in range(start, new_core_until + 1):
            self._view(view_index).make(oid)
        for other in snapshot:
            if other.obj.last_window < window:
                continue
            joint = min(new_core_until, other.core_until)
            for view_index in range(start, joint + 1):
                self._view(view_index).union(oid, other.oid)

    # ------------------------------------------------------------------
    # Window processing
    # ------------------------------------------------------------------

    def process_batch(self, batch: WindowBatch) -> List[Cluster]:
        """Slide to the batch's window, insert tuples, output clusters."""
        previous = self.tracker.current_window
        self.tracker.advance_to(batch.index)
        for window in range(previous, batch.index):
            self._views.pop(window, None)
        for obj in batch.new_objects:
            self.tracker.insert(obj)
        return self._emit(batch.index)

    def _emit(self, window: int) -> List[Cluster]:
        view = self._views.get(window)
        clusters: List[Cluster] = []
        cluster_of_root: Dict[int, int] = {}
        states = self.tracker.states
        if view is not None:
            for state in states.values():
                if state.core_until < window:
                    continue
                root = view.find(state.oid)
                cluster_id = cluster_of_root.get(root)
                if cluster_id is None:
                    cluster_id = len(clusters)
                    cluster_of_root[root] = cluster_id
                    clusters.append(Cluster(cluster_id, [], [], window))
                clusters[cluster_id].core_objects.append(state.obj)
        # Edge objects attach through their non-core-career neighbor lists.
        for state in states.values():
            if state.core_until >= window:
                continue
            touched: Set[int] = set()
            for core_state in state.attached_cores_in(window):
                root = view.find(core_state.oid)
                touched.add(cluster_of_root[root])
            for cluster_id in touched:
                clusters[cluster_id].edge_objects.append(state.obj)
        return clusters

    # ------------------------------------------------------------------
    # Introspection for memory accounting
    # ------------------------------------------------------------------

    def state_sizes(self) -> Dict[str, int]:
        """Entry counts of the maintained meta-data (for memory models)."""
        return {
            **self.tracker.state_sizes(),
            "views": len(self._views),
            "view_entries": sum(len(view) for view in self._views.values()),
        }
