"""Skeletal Grid Summarization — the summarized cluster representation.

An :class:`SGS` is the set of skeletal grid cells containing at least one
member of the summarized cluster (Definition 4.4), at some resolution
level (Section 6.1: level 0 is the finest, built on cells whose diagonal
equals θr; level n combines θ^n level-0 cells per side).

The class exposes the derived quantities the rest of the system consumes:
the cluster feature vector for the non-locational index, the MBR for the
locational index, and the fidelity helpers the property-based tests
assert (Lemmas 4.3–4.5).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.cells import Coord, SkeletalGridCell
from repro.geometry.mbr import MBR

#: A packed-table row: core flag, float population, offset mask, extras.
CellRow = Tuple[bool, float, int, FrozenSet[Coord]]


class SGS:
    """Skeletal Grid Summarization of a single density-based cluster."""

    __slots__ = (
        "cells", "side_length", "level", "cluster_id", "window_index", "_table",
    )

    def __init__(
        self,
        cells: Iterable[SkeletalGridCell],
        side_length: float,
        level: int = 0,
        cluster_id: int = -1,
        window_index: int = -1,
    ):
        self.cells: Dict[Coord, SkeletalGridCell] = {}
        for cell in cells:
            if abs(cell.side_length - side_length) > 1e-9:
                raise ValueError("all cells of an SGS share one side length")
            if cell.location in self.cells:
                raise ValueError(f"duplicate cell location {cell.location}")
            self.cells[cell.location] = cell
        if not self.cells:
            raise ValueError("an SGS must contain at least one cell")
        self.side_length = float(side_length)
        self.level = int(level)
        self.cluster_id = cluster_id
        self.window_index = window_index
        self._table: Optional[Dict[Coord, CellRow]] = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def dimensions(self) -> int:
        return next(iter(self.cells.values())).dimensions

    @property
    def volume(self) -> int:
        """Number of skeletal grid cells (the 'volume' feature)."""
        return len(self.cells)

    @property
    def core_count(self) -> int:
        """Number of core cells (the 'status count' feature)."""
        return sum(1 for cell in self.cells.values() if cell.is_core)

    @property
    def population(self) -> int:
        """Total number of summarized cluster member objects."""
        return sum(cell.population for cell in self.cells.values())

    def cell_table(self) -> Dict[Coord, CellRow]:
        """The packed cell table the match kernel reads: location → row,
        in cell order. A row is translation invariant; only its key says
        where the cluster sits. Built on first use (never on the stream
        path) and kept: cells are not mutated after construction."""
        if self._table is None:
            self._table = {
                location: (
                    cell.is_core, float(cell.population), *cell.packed_offsets()
                )
                for location, cell in self.cells.items()
            }
        return self._table

    def core_cells(self) -> List[SkeletalGridCell]:
        return [cell for cell in self.cells.values() if cell.is_core]

    def edge_cells(self) -> List[SkeletalGridCell]:
        return [cell for cell in self.cells.values() if not cell.is_core]

    def average_density(self) -> float:
        """Mean objects-per-cell-volume over the occupied cells."""
        total = sum(cell.density() for cell in self.cells.values())
        return total / len(self.cells)

    def average_connectivity(self) -> float:
        """Mean number of connections per core cell (0 when no core cells)."""
        cores = self.core_cells()
        if not cores:
            return 0.0
        return sum(cell.connection_count() for cell in cores) / len(cores)

    def mbr(self) -> MBR:
        """Bounding rectangle of the covered data space (Lemma 4.3)."""
        lows = None
        highs = None
        for cell in self.cells.values():
            cell_lows = cell.lows()
            cell_highs = cell.highs()
            if lows is None:
                lows = list(cell_lows)
                highs = list(cell_highs)
            else:
                for i in range(len(lows)):
                    lows[i] = min(lows[i], cell_lows[i])
                    highs[i] = max(highs[i], cell_highs[i])
        return MBR(lows, highs)

    def density_of_region(self, locations: Sequence[Coord]) -> float:
        """Exact density of the sub-region covered by ``locations``
        (Lemma 4.4: populations are exact and cells do not overlap)."""
        cells = [self.cells[loc] for loc in locations]
        total_population = sum(cell.population for cell in cells)
        total_volume = sum(cell.cell_volume() for cell in cells)
        return total_population / total_volume

    # ------------------------------------------------------------------
    # Connectivity helpers
    # ------------------------------------------------------------------

    def core_graph(self) -> Dict[Coord, List[Coord]]:
        """Adjacency among core cells via the connection vectors."""
        adjacency: Dict[Coord, List[Coord]] = {}
        for cell in self.cells.values():
            if not cell.is_core:
                continue
            neighbors = []
            for other in cell.connections:
                target = self.cells.get(other)
                if target is not None and target.is_core:
                    neighbors.append(other)
            adjacency[cell.location] = neighbors
        return adjacency

    def core_path_length(self, start: Coord, goal: Coord) -> Optional[int]:
        """Length (in hops) of the shortest core-cell path, or None.

        Used by the Lemma 4.5 fidelity tests: a connected core-object path
        of n objects implies a core-cell path of at most n cells.
        """
        if start == goal:
            return 0
        adjacency = self.core_graph()
        if start not in adjacency or goal not in adjacency:
            return None
        frontier = [start]
        distance = {start: 0}
        while frontier:
            next_frontier: List[Coord] = []
            for node in frontier:
                for neighbor in adjacency[node]:
                    if neighbor in distance:
                        continue
                    distance[neighbor] = distance[node] + 1
                    if neighbor == goal:
                        return distance[neighbor]
                    next_frontier.append(neighbor)
            frontier = next_frontier
        return None

    def is_connected(self) -> bool:
        """True when the core cells form one connected component and every
        edge cell is attached to (connected from) some core cell."""
        cores = [cell.location for cell in self.cells.values() if cell.is_core]
        if not cores:
            return len(self.cells) == 1
        adjacency = self.core_graph()
        seen = {cores[0]}
        stack = [cores[0]]
        while stack:
            node = stack.pop()
            for neighbor in adjacency.get(node, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        if any(core not in seen for core in cores):
            return False
        attached = set()
        for core in cores:
            for other in self.cells[core].connections:
                attached.add(other)
        for cell in self.cells.values():
            if not cell.is_core and cell.location not in attached:
                return False
        return True

    # ------------------------------------------------------------------
    # Fidelity (Lemma 4.3)
    # ------------------------------------------------------------------

    def max_location_error(self, member_coords: Iterable[Tuple[float, ...]]) -> float:
        """Upper bound on the distance from any covered-space point to the
        nearest cluster member: the cell diagonal (== θr at level 0)."""
        del member_coords  # the bound is structural, not data dependent
        return self.side_length * math.sqrt(self.dimensions)

    def covers_point(self, point: Sequence[float]) -> bool:
        """True when ``point`` falls into one of the skeletal grid cells."""
        coord = tuple(int(math.floor(value / self.side_length)) for value in point)
        return coord in self.cells

    def __len__(self) -> int:
        return len(self.cells)

    def __repr__(self) -> str:
        return (
            f"SGS(cluster={self.cluster_id}, window={self.window_index}, "
            f"level={self.level}, cells={len(self.cells)}, "
            f"cores={self.core_count}, population={self.population})"
        )
