"""Skeletal Grid Summarization — the summarized cluster representation.

An :class:`SGS` is the set of skeletal grid cells containing at least one
member of the summarized cluster (Definition 4.4), at some resolution
level (Section 6.1: level 0 is the finest, built on cells whose diagonal
equals θr; level n combines θ^n level-0 cells per side).

Its one state is ``rows``: location → ``(is_core, population, connection
block)`` in cell order (:mod:`repro.core.cells`). The extractor appends
rows, the blob is their byte image, and the feature vector, the MBR, the
match kernel's table and the coarser levels are read off them; ``cells``
and the fidelity helpers of Lemmas 4.3–4.5 are for people and tests.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.cells import (
    CellStatus,
    Coord,
    Row,
    SkeletalGridCell,
    block_neighbors,
    connection_block,
    pack_offsets,
)
from repro.geometry.mbr import MBR

#: A match-kernel row: core flag, float population, offset mask, extras.
CellRow = Tuple[bool, float, int, FrozenSet[Coord]]


class SGS:
    """Skeletal Grid Summarization of a single density-based cluster."""

    __slots__ = (
        "rows", "side_length", "level", "cluster_id", "window_index", "_table",
    )

    def __init__(
        self,
        rows: Dict[Coord, Row],
        side_length: float,
        level: int = 0,
        cluster_id: int = -1,
        window_index: int = -1,
    ):
        """The summary owning ``rows`` as given: how the extractor, the
        decoders and the coarsener build one without a cell object."""
        if not rows:
            raise ValueError("an SGS must contain at least one cell")
        self.rows = rows
        self.side_length = float(side_length)
        self.level = int(level)
        self.cluster_id = cluster_id
        self.window_index = window_index
        self._table: Optional[Dict[Coord, CellRow]] = None

    @classmethod
    def from_cells(
        cls, cells: Iterable[SkeletalGridCell], side_length: float, **placement
    ) -> "SGS":
        """A hand-made summary, from cell objects (checked, then dropped);
        ``placement`` is ``level`` / ``cluster_id`` / ``window_index``."""
        rows: Dict[Coord, Row] = {}
        for cell in cells:
            if abs(cell.side_length - side_length) > 1e-9:
                raise ValueError("all cells of an SGS share one side length")
            if cell.location in rows:
                raise ValueError(f"duplicate cell location {cell.location}")
            rows[cell.location] = (
                cell.is_core,
                cell.population,
                connection_block(cell.location, cell.neighbors()),
            )
        return cls(rows, side_length, **placement)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def cells(self) -> Dict[Coord, SkeletalGridCell]:
        """The rows as cell objects, location → cell in cell order: a
        fresh view per call, O(cells) — not for stream or match paths."""
        side, status = self.side_length, (CellStatus.EDGE, CellStatus.CORE)
        return {
            location: SkeletalGridCell(
                location, side, population, status[is_core],
                block_neighbors(location, block),
            )
            for location, (is_core, population, block) in self.rows.items()
        }

    @property
    def dimensions(self) -> int:
        return len(next(iter(self.rows)))

    @property
    def volume(self) -> int:
        """Number of skeletal grid cells (the 'volume' feature)."""
        return len(self.rows)

    @property
    def core_count(self) -> int:
        """Number of core cells (the 'status count' feature)."""
        return sum(1 for is_core, _, _ in self.rows.values() if is_core)

    @property
    def population(self) -> int:
        """Total number of summarized cluster member objects."""
        return sum(population for _, population, _ in self.rows.values())

    def cell_table(self) -> Dict[Coord, CellRow]:
        """The table the match kernel reads: location → kernel row, in
        cell order — a row with its block as the ``(mask, extras)`` set
        the kernel intersects. Built on first use (never on the stream
        path) and kept: rows are not mutated after construction."""
        if self._table is None:
            dims = self.dimensions
            self._table = {
                location: (is_core, float(population), *pack_offsets(block, dims))
                for location, (is_core, population, block) in self.rows.items()
            }
        return self._table

    def average_density(self) -> float:
        """Mean objects-per-cell-volume over the occupied cells."""
        cell_volume = self.side_length ** self.dimensions
        total = sum(
            population / cell_volume for _, population, _ in self.rows.values()
        )
        return total / len(self.rows)

    def average_connectivity(self) -> float:
        """Mean number of connections per core cell (0 when no core cells)."""
        blocks = [block for is_core, _, block in self.rows.values() if is_core]
        if not blocks:
            return 0.0
        return sum(map(len, blocks)) // self.dimensions / len(blocks)

    def mbr(self) -> MBR:
        """Bounding rectangle of the covered data space (Lemma 4.3): a
        float multiply is monotone, so the extreme corners are those of
        the per-axis extreme coordinates."""
        side = self.side_length
        axes = list(zip(*self.rows))
        return MBR(
            [min(axis) * side for axis in axes],
            [(max(axis) + 1) * side for axis in axes],
        )

    # ------------------------------------------------------------------
    # Connectivity helpers
    # ------------------------------------------------------------------

    def core_graph(self) -> Dict[Coord, List[Coord]]:
        """Adjacency among core cells via the connection vectors."""
        rows = self.rows
        return {
            location: [
                other
                for other in block_neighbors(location, block)
                if other in rows and rows[other][0]
            ]
            for location, (is_core, _, block) in rows.items()
            if is_core
        }

    def is_connected(self) -> bool:
        """True when the core cells form one connected component and every
        edge cell is attached to (connected from) some core cell."""
        adjacency = self.core_graph()
        if not adjacency:
            return len(self.rows) == 1
        start = next(iter(adjacency))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        if len(seen) != len(adjacency):
            return False
        attached = set()
        for core in adjacency:
            attached.update(block_neighbors(core, self.rows[core][2]))
        return all(
            is_core or location in attached
            for location, (is_core, _, _) in self.rows.items()
        )

    # ------------------------------------------------------------------
    # Fidelity (Lemma 4.3)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return (
            f"SGS(cluster={self.cluster_id}, window={self.window_index}, "
            f"level={self.level}, cells={len(self.rows)}, "
            f"cores={self.core_count}, population={self.population})"
        )
