"""C-SGS: integrated cluster extraction + summarization (Section 5).

C-SGS maintains the skeletal grid cells of the data space incrementally
across window slides. Cell *statuses* and cell *connections* carry
lifespans (Lemmas 5.1/5.2) pre-computed at insertion time, so expiration
needs no maintenance work: a status or connection simply stops being
valid once the window index passes its recorded lifespan.

Per window, the output stage runs a depth-first search over the currently
core cells (vertices) and currently valid connections (edges), collects
the attached edge cells, and emits each connected group as one cluster —
simultaneously in summarized form (:class:`~repro.core.sgs.SGS`) and in
full representation (:class:`~repro.clustering.cluster.Cluster`), the
latter derived from the objects stored in the group's cells.

State kept beyond the raw window contents:

* ``_cell_core_until[coord]`` — Lemma 5.1: the max core-career end over
  the cell's objects (monotone per event; self-correcting once the
  contributing object expires, since careers never outlive objects);
* ``_core_connections[(a, b)]`` — Lemma 5.2: last window in which core
  cells ``a`` and ``b`` are directly connected (some core-object pair,
  one in each, are neighbors);
* ``_edge_attachments[(a, b)]`` — last window in which some object in
  cell ``a`` is attached to a core object in core cell ``b``.

All three maps are updated by exactly two event kinds from the
:class:`~repro.core.lifespan.NeighborhoodTracker`: new-object insertion
(the object's own careers vs. each of its neighbors) and core-career
extension of an existing object (replayed against its non-core-career
neighbor list). This is the paper's "piggy-backed" summarization: no
extra range queries, no per-view cluster maintenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from repro.clustering.cluster import Cluster
from repro.core.cells import Row, connection_block
from repro.core.lifespan import NeighborhoodTracker, ObjectState
from repro.core.sgs import SGS
from repro.streams.windows import WindowBatch

Coord = Tuple[int, ...]
PairKey = Tuple[Coord, Coord]


def _pair_key(a: Coord, b: Coord) -> PairKey:
    return (a, b) if a <= b else (b, a)


def _extend(lifespans: Dict, key, until: int) -> None:
    """Lifespans only grow: keep the later end."""
    if until > lifespans.get(key, -1):
        lifespans[key] = until


@dataclass
class WindowOutput:
    """Result of one window: clusters in both representations.

    ``clusters[i]`` and ``summaries[i]`` describe the same cluster.
    """

    window_index: int
    clusters: List[Cluster] = field(default_factory=list)
    summaries: List[SGS] = field(default_factory=list)


class CSGS:
    """Integrated density-based cluster extraction + SGS summarization."""

    def __init__(
        self,
        theta_range: float,
        theta_count: int,
        dimensions: int,
        manage_grid: bool = True,
        provider=None,
        backend=None,
        cells=None,
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
            manage_grid=manage_grid,
            provider=provider,
            backend=backend,
            cells=cells,
        )
        self._cell_core_until: Dict[Coord, int] = {}
        self._core_connections: Dict[PairKey, int] = {}
        self._edge_attachments: Dict[PairKey, int] = {}

    # ------------------------------------------------------------------
    # Event handlers (insertion-time lifespan maintenance)
    # ------------------------------------------------------------------

    def _handle_insert(
        self, state: ObjectState, neighbors: List[ObjectState]
    ) -> None:
        """Record the lifespans a new object implies, once per foreign
        neighbor cell: each is a ``min`` against the new object's own
        careers, and ``max_b min(x, b) == min(x, max_b b)``, so only a
        cell's largest ``core_until`` and ``last_window`` matter."""
        window = self.tracker.current_window
        cell = state.cell
        core = state.core_until
        last = state.obj.last_window
        is_core = core >= window
        if is_core:
            _extend(self._cell_core_until, cell, core)
        fold: Dict[Coord, List[int]] = {}
        find = fold.get
        for nb in neighbors:
            entry = find(nb.cell)
            if entry is None:
                fold[nb.cell] = [nb.core_until, nb.obj.last_window]
            else:
                if nb.core_until > entry[0]:
                    entry[0] = nb.core_until
                if nb.obj.last_window > entry[1]:
                    entry[1] = nb.obj.last_window
        fold.pop(cell, None)
        connections = self._core_connections
        attachments = self._edge_attachments
        # Everyone here is alive (last >= window), so a lifespan is
        # current exactly when the core career(s) in its min are.
        for nb_cell, (nb_core, nb_last) in fold.items():
            if nb_core >= window:
                if is_core:
                    key = _pair_key(cell, nb_cell)
                    _extend(connections, key, min(core, nb_core))
                # The new object, attached to the neighbor cell's cores.
                _extend(attachments, (cell, nb_cell), min(last, nb_core))
            if is_core:
                # The neighbor cell's objects, attached to the new core.
                _extend(attachments, (nb_cell, cell), min(nb_last, core))

    def _handle_extension(
        self,
        state: ObjectState,
        old_core_until: int,
        new_core_until: int,
        snapshot: List[ObjectState],
    ) -> None:
        del old_core_until  # superseded values need no replay of their own
        window = self.tracker.current_window
        cell = state.cell
        _extend(self._cell_core_until, cell, new_core_until)
        for other in snapshot:
            if other.obj.last_window < window or other.cell == cell:
                continue
            # Core-core connection: both careers and the neighborship.
            conn = min(new_core_until, other.core_until)
            if conn >= window:
                key = _pair_key(cell, other.cell)
                _extend(self._core_connections, key, conn)
            # Edge attachment of the neighbor's cell to this core cell.
            attach = min(other.obj.last_window, new_core_until)
            if attach >= window:
                _extend(self._edge_attachments, (other.cell, cell), attach)

    # ------------------------------------------------------------------
    # Window processing
    # ------------------------------------------------------------------

    def begin_window(self, window_index: int) -> None:
        """Slide to ``window_index``: purge expired state and lifespans."""
        self.tracker.advance_to(window_index)
        self._prune(window_index)

    def ingest(self, obj, neighbor_objs=None):
        """Insert one object (optionally with pre-computed neighbors, for
        shared multi-query execution)."""
        return self.tracker.insert(obj, neighbor_objs)

    def emit(self, window_index: int) -> WindowOutput:
        """Emit the current window's clusters in both representations."""
        return self._emit(window_index)

    def process_batch(self, batch: WindowBatch) -> WindowOutput:
        """Slide to the batch's window, insert its tuples, emit output.

        Insertion runs through the tracker's batched fast path: one
        ``range_query_many`` pass over the whole slide instead of one
        range query per object.
        """
        self.begin_window(batch.index)
        self.tracker.insert_batch(batch.new_objects)
        return self._emit(batch.index)

    def process(self, batches: Iterable[WindowBatch]) -> Iterator[WindowOutput]:
        for batch in batches:
            yield self.process_batch(batch)

    def _prune(self, window: int) -> None:
        """Drop lifespan entries that ended before ``window``."""
        self._cell_core_until = {
            coord: until
            for coord, until in self._cell_core_until.items()
            if until >= window
        }
        self._core_connections = {
            key: until
            for key, until in self._core_connections.items()
            if until >= window
        }
        self._edge_attachments = {
            key: until
            for key, until in self._edge_attachments.items()
            if until >= window
        }

    # ------------------------------------------------------------------
    # Output stage (Section 5.4)
    # ------------------------------------------------------------------

    def _emit(self, window: int) -> WindowOutput:
        # Cell substrate: the provider itself for the grid backend, the
        # tracker's own CellMap for search-only backends.
        grid = self.tracker.cells
        states = self.tracker.states

        core_cells: Set[Coord] = {
            coord
            for coord, until in self._cell_core_until.items()
            if until >= window and grid.cell_population(coord) > 0
        }

        # Depth-first search over currently connected core cells.
        adjacency: Dict[Coord, List[Coord]] = {coord: [] for coord in core_cells}
        for (a, b), until in self._core_connections.items():
            if until >= window and a in core_cells and b in core_cells:
                adjacency[a].append(b)
                adjacency[b].append(a)
        # Connection-recording order (and hence adjacency-list and set
        # insertion order) varies with the neighbor-search backend; sort
        # every iteration over it so the emitted output is
        # backend-independent.
        for neighbors in adjacency.values():
            neighbors.sort()
        group_of: Dict[Coord, int] = {}
        group_cores: List[List[Coord]] = []
        for coord in sorted(core_cells):
            if coord in group_of:
                continue
            group_id = len(group_cores)
            members = []
            stack = [coord]
            group_of[coord] = group_id
            while stack:
                node = stack.pop()
                members.append(node)
                for neighbor in adjacency[node]:
                    if neighbor not in group_of:
                        group_of[neighbor] = group_id
                        stack.append(neighbor)
            group_cores.append(members)

        # Candidate edge cells from currently valid attachments. Note the
        # core/edge status of a cell is per cluster (Definition 4.2): a
        # cell that is core for cluster P can simultaneously be an edge
        # cell of cluster Q when one of its non-core objects is attached
        # to a core object of Q — so core cells attached across groups
        # are candidates too.
        attached_to: Dict[Coord, List[Coord]] = {}  # core cell -> candidates
        for (edge_coord, core_coord), until in self._edge_attachments.items():
            if until < window or core_coord not in core_cells:
                continue
            if edge_coord in core_cells and (
                group_of[edge_coord] == group_of[core_coord]
            ):
                continue
            if grid.cell_population(edge_coord) > 0:
                attached_to.setdefault(core_coord, []).append(edge_coord)
        edge_candidates = set().union(*attached_to.values())

        # Per-group edge members, resolved through the objects'
        # non-core-career neighbor lists (no range queries).
        n_groups = len(group_cores)
        group_edge_members: List[Dict[int, ObjectState]] = [
            {} for _ in range(n_groups)
        ]
        group_edge_cells: List[Dict[Coord, int]] = [{} for _ in range(n_groups)]
        for edge_coord in sorted(edge_candidates):
            own_group = group_of.get(edge_coord)
            for obj in grid.objects_in_cell(edge_coord):
                state = states[obj.oid]
                if state.core_until >= window:
                    continue  # core objects belong only to their own group
                touched: Set[int] = set()
                for core_state in state.attached_cores_in(window):
                    group_id = group_of.get(core_state.cell)
                    if group_id is not None and group_id != own_group:
                        touched.add(group_id)
                for group_id in touched:
                    group_edge_members[group_id][state.oid] = state
                    cells = group_edge_cells[group_id]
                    cells[edge_coord] = cells.get(edge_coord, 0) + 1

        side = grid.side
        clusters: List[Cluster] = []
        summaries: List[SGS] = []
        for group_id, cores in enumerate(group_cores):
            core_objects: List = []
            edge_objects: List = []
            for coord in cores:
                for obj in grid.objects_in_cell(coord):
                    if states[obj.oid].core_until >= window:
                        core_objects.append(obj)
                    else:
                        edge_objects.append(obj)
            for state in group_edge_members[group_id].values():
                edge_objects.append(state.obj)
            clusters.append(
                Cluster(group_id, core_objects, edge_objects, window)
            )

            # One row per cell. A core cell is connected to its
            # adjacency list (already sorted, all of this group) and to
            # the cells attached to it — each holds an edge member of
            # this group: an attachment lives as long as one does.
            rows: Dict[Coord, Row] = {}
            attached_cells = group_edge_cells[group_id]
            for coord in cores:
                neighbors = adjacency[coord]
                if coord in attached_to:
                    neighbors = sorted(neighbors + attached_to[coord])
                rows[coord] = (
                    True,
                    grid.cell_population(coord),
                    connection_block(coord, neighbors),
                )
            for edge_coord, member_count in attached_cells.items():
                rows[edge_coord] = (False, member_count, b"")
            summaries.append(
                SGS(rows, side, level=0, cluster_id=group_id, window_index=window)
            )

        return WindowOutput(window, clusters, summaries)

    # ------------------------------------------------------------------
    # Introspection for memory accounting
    # ------------------------------------------------------------------

    def state_sizes(self) -> Dict[str, int]:
        """Entry counts of the maintained meta-data (for memory models)."""
        return {
            **self.tracker.state_sizes(),
            "cells": len(self._cell_core_until),
            "core_connections": len(self._core_connections),
            "edge_attachments": len(self._edge_attachments),
        }
