"""Lifespan analysis over sliding windows (Section 5.3).

In periodic sliding windows the lifespan of every object — and therefore
of every neighborship — is deterministic the moment the object arrives
(Observations 5.2/5.3). This module implements the paper's consequence of
that fact: *all* expiration effects are pre-computed at insertion time, so
window slides cost nothing beyond dropping expired objects.

The :class:`NeighborhoodTracker` maintains, per alive object:

* the **neighbor-expiry histogram** — a count of the object's neighbors
  keyed by the neighbors' last windows. The θc-th largest key is exactly
  ``win_θc_nei`` of Observation 5.4, giving the object's core-career end
  (``core_until``) in O(distinct keys). Observation 5.4 also caps the
  career at the object's own last window: once ``core_until`` reaches
  it the object is *saturated* — no later neighbor can change it — so
  the histogram is released and insertion skips the object from then on.
* ``core_until`` — the last window (inclusive) in which the object is a
  core object, given everything known so far. It can only grow, and only
  when a new neighbor arrives (a *status prolong / promotion*, Figure 6).
* the **non-core-career neighbor list** (Section 5.3, auxiliary
  meta-data) — the neighbors whose neighborship outlives the object's
  core career. Its size is bounded by θc (otherwise the object would
  still be core), and it is exactly the information needed to (a) attach
  edge objects to clusters without re-running range queries and (b)
  propagate core-career extensions to cell connections / cluster views.

Consumers (C-SGS, Extra-N) subscribe via two callbacks:

* ``on_insert(state, neighbor_states)`` — after a new object's careers
  and its neighbors' careers are fully updated;
* ``on_extension(state, old_core_until, new_core_until, snapshot)`` —
  when an existing object's core career is promoted/prolonged, with a
  snapshot of its non-core-career neighbor list taken *before* pruning
  (the pairs whose joint careers may have been extended).

Exactly one range query runs per inserted object, matching the paper's
"minimum number of range query searches" guarantee — and because that
query dominates insertion cost, the search itself is delegated to a
pluggable :class:`~repro.index.provider.NeighborProvider` (grid or k-d
tree backend). The skeletal-grid *cell* bookkeeping C-SGS
needs is independent of the search backend: when the provider is
cell-backed (the grid), it doubles as the cell substrate; otherwise the
tracker keeps a bare :class:`~repro.index.grid_index.CellMap` alongside.

:meth:`NeighborhoodTracker.insert_batch` is the batched fast path: the
whole window batch is bulk-inserted and answered with one
``range_query_many`` pass, then careers are updated in arrival order —
producing output identical to object-at-a-time insertion.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.index.grid_index import CellMap
from repro.index.provider import (
    NeighborProvider,
    batched_neighborhoods,
    cell_substrate,
    resolve_provider,
)
from repro.streams.objects import StreamObject

Coord = Tuple[int, ...]

# Sentinel meaning "not core in any window known so far".
NEVER_CORE = -1


class ObjectState:
    """Lifespan bookkeeping for one alive stream object."""

    __slots__ = ("obj", "cell", "neighbor_hist", "core_until", "noncore_neighbors")

    def __init__(self, obj: StreamObject, cell: Coord):
        self.obj = obj
        self.cell = cell
        # {neighbor_last_window: count of such neighbors}; released
        # (None) once the object saturates — it is never read again.
        self.neighbor_hist: Optional[Dict[int, int]] = {}
        self.core_until: int = NEVER_CORE
        # Neighbors whose neighborship outlives this object's core career.
        self.noncore_neighbors: List["ObjectState"] = []

    @property
    def oid(self) -> int:
        return self.obj.oid

    def compute_core_until(self, window_index: int, theta_count: int) -> int:
        """Recompute the core-career end from the neighbor histogram.

        Returns the largest window ``w`` (capped at the object's own last
        window) such that at least θc neighbors are alive in ``w``, or
        :data:`NEVER_CORE` when fewer than θc neighbors are alive in the
        current window. Histogram keys before ``window_index`` are pruned
        as a side effect (those neighbors have expired). A saturated
        object has released its histogram; its career is final.
        """
        hist = self.neighbor_hist
        if hist is None:
            return self.core_until
        stale = [key for key in hist if key < window_index]
        for key in stale:
            del hist[key]
        remaining = theta_count
        for key in sorted(hist, reverse=True):
            remaining -= hist[key]
            if remaining <= 0:
                return min(key, self.obj.last_window)
        return NEVER_CORE

    def attached_cores_in(self, window_index: int) -> List["ObjectState"]:
        """The core objects this (edge) object is attached to at a window."""
        return [
            nb
            for nb in self.noncore_neighbors
            if nb.obj.last_window >= window_index
            and nb.core_until >= window_index
        ]

    def __repr__(self) -> str:
        return (
            f"ObjectState(oid={self.oid}, cell={self.cell}, "
            f"core_until={self.core_until})"
        )


class UnknownNeighborError(ValueError, KeyError):
    """An injected neighbor the tracker does not hold (``KeyError`` is
    what the bare lookup used to raise)."""

    __str__ = ValueError.__str__


InsertCallback = Callable[[ObjectState, List[ObjectState]], None]
ExtensionCallback = Callable[[ObjectState, int, int, List[ObjectState]], None]


class NeighborhoodTracker:
    """Shared incremental neighborhood/career maintenance.

    Drives the grid index, the per-object lifespan state, and the
    promotion/prolong event stream that both C-SGS (cell statuses and
    connections) and Extra-N (predicted cluster-membership views) consume.
    """

    def __init__(
        self,
        theta_range: float,
        theta_count: int,
        dimensions: int,
        on_insert: Optional[InsertCallback] = None,
        on_extension: Optional[ExtensionCallback] = None,
        manage_grid: bool = True,
        provider: Optional[NeighborProvider] = None,
        backend: Optional[str] = None,
        cells: Optional[CellMap] = None,
        maintain_cells: bool = True,
    ):
        if theta_count < 1:
            raise ValueError("theta_count must be at least 1")
        self.theta_range = float(theta_range)
        self.theta_count = int(theta_count)
        self.dimensions = int(dimensions)
        # A provider may be shared across trackers (multi-query
        # execution); then exactly one owner manages insert/remove on it.
        provider = resolve_provider(provider, backend, theta_range, dimensions)
        self.provider = provider
        # The SGS cell substrate: an externally shared CellMap (its
        # owner maintains it), the provider itself (the grid *is* a
        # CellMap), or a bare CellMap this tracker maintains. Consumers
        # that never read per-cell contents (Extra-N) pass
        # ``maintain_cells=False`` to skip the bookkeeping; cell
        # *coordinates* stay available.
        substrate = cell_substrate(provider)
        if cells is not None:
            self.cells: CellMap = cells
            self._manage_cells = False
        elif substrate is not None:
            self.cells = substrate
            self._manage_cells = False
        else:
            self.cells = CellMap(theta_range, dimensions)
            self._manage_cells = maintain_cells
        # Whether ``provider.insert`` returns coordinates of the very
        # substrate this tracker reads (the grid backend does).
        self._cell_backed = self.cells is substrate
        self.manage_grid = manage_grid
        self.states: Dict[int, ObjectState] = {}
        self.current_window = 0
        self._expiry_buckets: Dict[int, List[ObjectState]] = {}
        self._on_insert = on_insert
        self._on_extension = on_extension

    # ------------------------------------------------------------------
    # Window progression
    # ------------------------------------------------------------------

    def advance_to(self, window_index: int) -> int:
        """Move to ``window_index``, purging expired objects.

        Returns the number of objects expired. This — bucket removal — is
        the *only* expiration-time work, per the lifespan design.
        """
        if window_index < self.current_window:
            raise ValueError("windows must advance monotonically")
        expired = 0
        for window in range(self.current_window, window_index):
            bucket = self._expiry_buckets.pop(window, None)
            if not bucket:
                continue
            for state in bucket:
                del self.states[state.oid]
                if self.manage_grid:
                    self.provider.remove(state.obj)
                if self._manage_cells:
                    self.cells.remove(state.obj)
                expired += 1
        self.current_window = window_index
        return expired

    # ------------------------------------------------------------------
    # Insertion (Section 5.4, "Handling Insertions")
    # ------------------------------------------------------------------

    def _admit(self, obj: StreamObject) -> None:
        """Refuse an expired or already-alive object, touching nothing."""
        if obj.last_window < self.current_window:
            raise ValueError(
                f"object {obj.oid} is already expired at window "
                f"{self.current_window}"
            )
        if obj.oid in self.states:
            raise ValueError(
                f"object {obj.oid} is already alive in this tracker"
            )

    def insert(
        self,
        obj: StreamObject,
        neighbor_objs: Optional[List[StreamObject]] = None,
    ) -> ObjectState:
        """Insert a new object: one range query, then career updates.

        ``neighbor_objs`` lets a multi-query coordinator inject the
        shared range-query result (the object must then already be in
        the shared grid); by default the tracker runs the query itself.
        """
        self._admit(obj)
        cell: Optional[Coord] = None
        if neighbor_objs is None:
            if not self.manage_grid:
                raise ValueError(
                    "a tracker on a shared provider needs neighbors injected"
                )
            placed = self.provider.insert(obj)
            if self._cell_backed:
                cell = placed  # the provider returns the cell coord
            neighbor_objs = self.provider.range_query(
                obj.coords, exclude_oid=obj.oid
            )
        return self._insert_prepared(obj, neighbor_objs, cell)

    def insert_batch(self, objects: Iterable[StreamObject]) -> None:
        """Insert a window batch through the batched range-query path.

        Delegates to :func:`~repro.index.provider.batched_neighborhoods`
        — one bulk insert plus one ``range_query_many`` pass — whose
        intra-batch crediting makes the career updates (and the event
        stream consumers see) identical to object-at-a-time insertion.
        """
        objects = list(objects)
        if not objects:
            return
        if not self.manage_grid:
            raise ValueError(
                "a tracker on a shared provider needs neighbors injected"
            )
        for obj in objects:
            self._admit(obj)
        cell_backed = self._cell_backed
        for obj, placed, known in batched_neighborhoods(
            self.provider, objects
        ):
            self._insert_prepared(obj, known, placed if cell_backed else None)

    def _insert_prepared(
        self,
        obj: StreamObject,
        neighbor_objs: List[StreamObject],
        cell: Optional[Coord] = None,
    ) -> ObjectState:
        """Career updates for one object whose neighbors are resolved.

        ``cell`` is the object's grid coordinate when the caller already
        has it (the grid provider returns it on insert); otherwise it is
        derived here — inserting into the tracker's own CellMap when the
        provider is not cell-backed.

        A saturated neighbor (core career as long as its lifespan, the
        cap of Observation 5.4) is skipped outright: careers only grow,
        so nothing the new object brings can change it.
        """
        window = self.current_window
        theta_count = self.theta_count
        states = self.states
        last = obj.last_window
        floor = window - 1
        # Everything that can fail is resolved before any state changes.
        try:
            neighbors = [states[nb.oid] for nb in neighbor_objs]
        except KeyError as missing:
            raise UnknownNeighborError(
                f"neighbor {missing.args[0]} of object {obj.oid} is not "
                "alive in this tracker"
            ) from None
        if self._manage_cells:
            cell = self.cells.insert(obj)
        elif cell is None:
            cell = self.cells.cell_coord(obj.coords)
        state = ObjectState(obj, cell)
        states[obj.oid] = state
        self._expiry_buckets.setdefault(last, []).append(state)

        # New object's own careers.
        hist = state.neighbor_hist
        for nb in neighbors:
            key = nb.obj.last_window
            hist[key] = hist.get(key, 0) + 1
        core = state.core_until = state.compute_core_until(window, theta_count)
        if core == last:
            state.neighbor_hist = None  # saturated at birth
        else:
            # core < last and window <= last: only nb.last can fail
            # min(last, nb.last) > threshold.
            threshold = max(core, floor)
            state.noncore_neighbors = [
                nb for nb in neighbors if nb.obj.last_window > threshold
            ]

        # Impact on existing neighbors: status promotion / prolong.
        on_extension = self._on_extension
        for nb in neighbors:
            old = nb.core_until
            nb_last = nb.obj.last_window
            if old == nb_last:
                continue  # saturated: decided for good
            nb_hist = nb.neighbor_hist
            nb_hist[last] = nb_hist.get(last, 0) + 1
            new = nb.compute_core_until(window, theta_count)
            if new > old:
                nb.core_until = new
                # Rebound below, so this *is* the pre-pruning snapshot.
                snapshot = nb.noncore_neighbors
                if on_extension is not None:
                    on_extension(nb, old, new, snapshot)
                if new == nb_last:
                    # Saturated: nothing outlives the career any more.
                    nb.neighbor_hist = None
                    nb.noncore_neighbors = []
                    continue
                nb.noncore_neighbors = [
                    other
                    for other in snapshot
                    if other.obj.last_window >= window
                    and min(nb_last, other.obj.last_window) > new
                ]
            if min(nb_last, last) > max(nb.core_until, floor):
                nb.noncore_neighbors.append(state)

        if self._on_insert is not None:
            self._on_insert(state, neighbors)
        return state

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def state_sizes(self) -> Dict[str, int]:
        """Entry counts of the per-object meta-data (for memory models);
        a saturated object has released its histogram."""
        states = self.states.values()
        return {
            "objects": len(states),
            "hist_entries": sum(
                len(state.neighbor_hist)
                for state in states
                if state.neighbor_hist is not None
            ),
            "noncore_entries": sum(
                len(state.noncore_neighbors) for state in states
            ),
        }

    def __len__(self) -> int:
        return len(self.states)
