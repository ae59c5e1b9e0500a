"""Skeletal grid cells — the building blocks of SGS (Definition 4.4).

Each cell carries the five attributes of the paper: location (grid
coordinate, from which the per-dimension minimum values follow), side
length, population, status (core/edge), and a connection vector. We store
connections as a frozen set of neighbor cell coordinates instead of a
fixed boolean vector over "adjacent" cells: with cell diagonal = θr,
directly connected core cells can be up to ``ceil(sqrt(d))`` grid steps
apart, so a ±1-step boolean vector cannot express all legal connections
in d >= 2. The byte-accounting model in
``repro.eval.memory`` still charges the paper's fixed per-cell cost so
storage comparisons stay commensurate.
"""

from __future__ import annotations

import enum
import math
from typing import FrozenSet, Tuple

from repro.index.grid_index import min_cell_gap_sq

Coord = Tuple[int, ...]


class CellStatus(enum.Enum):
    """Status of a skeletal grid cell (Definition 4.2)."""

    CORE = "core"
    EDGE = "edge"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class SkeletalGridCell:
    """One skeletal grid cell of an SGS.

    Attributes mirror Definition 4.4:

    * ``location`` — integer grid coordinate; the continuous minimum value
      on dimension ``i`` is ``location[i] * side_length``.
    * ``side_length`` — extent on every dimension (uniform cells).
    * ``population`` — number of cluster member objects inside the cell.
    * ``status`` — :class:`CellStatus`.
    * ``connections`` — coordinates of connected skeletal grid cells. Per
      Definition 4.4 only core cells carry connections (to directly
      connected core cells and to attached edge cells); for edge cells the
      set is empty.
    """

    __slots__ = ("location", "side_length", "population", "status", "connections")

    def __init__(
        self,
        location: Coord,
        side_length: float,
        population: int,
        status: CellStatus,
        connections: FrozenSet[Coord] = frozenset(),
    ):
        if population < 0:
            raise ValueError("population must be non-negative")
        if side_length <= 0:
            raise ValueError("side_length must be positive")
        self.location = tuple(location)
        self.side_length = float(side_length)
        self.population = int(population)
        self.status = status
        self.connections = frozenset(connections)

    @property
    def dimensions(self) -> int:
        return len(self.location)

    @property
    def is_core(self) -> bool:
        return self.status is CellStatus.CORE

    def lows(self) -> Tuple[float, ...]:
        """Continuous minimum value per dimension (the location vector)."""
        return tuple(c * self.side_length for c in self.location)

    def highs(self) -> Tuple[float, ...]:
        return tuple((c + 1) * self.side_length for c in self.location)

    def center(self) -> Tuple[float, ...]:
        return tuple((c + 0.5) * self.side_length for c in self.location)

    def cell_volume(self) -> float:
        return self.side_length ** self.dimensions

    def density(self) -> float:
        """Objects per unit volume inside this cell (Lemma 4.4)."""
        return self.population / self.cell_volume()

    def min_gap_to(self, other: "SkeletalGridCell") -> float:
        """Minimum distance between points of this cell and ``other``.

        Both cells must share the side length (one SGS level); the gap
        is the corner-to-corner :func:`~repro.index.grid_index.min_cell_gap_sq`
        — the same geometry the sphere-pruned offset tables are built
        from — and is 0.0 for touching or overlapping cells.
        """
        if other.side_length != self.side_length:
            raise ValueError("cells must share a side length")
        if other.dimensions != self.dimensions:
            raise ValueError("cells must share dimensionality")
        delta = tuple(
            b - a for a, b in zip(self.location, other.location)
        )
        return math.sqrt(min_cell_gap_sq(delta, self.side_length))

    def may_connect(
        self, other: "SkeletalGridCell", theta_range: float
    ) -> bool:
        """Whether the two cells *could* host directly connected core
        objects: some point pair, one per cell, within θr (boundary
        inclusive). Necessary for any connection of Definition 4.4 —
        cells failing this can never appear in each other's connection
        vectors, which is exactly the sphere-pruning predicate of the
        grid's offset tables. Compared in squared space (no sqrt round
        trip) so boundary pairs agree with that predicate."""
        if other.side_length != self.side_length:
            raise ValueError("cells must share a side length")
        if other.dimensions != self.dimensions:
            raise ValueError("cells must share dimensionality")
        delta = tuple(
            b - a for a, b in zip(self.location, other.location)
        )
        gap_sq = min_cell_gap_sq(delta, self.side_length)
        return gap_sq <= theta_range * theta_range

    def __repr__(self) -> str:
        return (
            f"SkeletalGridCell(loc={self.location}, status={self.status.value}, "
            f"pop={self.population}, conn={len(self.connections)})"
        )
