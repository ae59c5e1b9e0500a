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
import functools
import itertools
import math
from operator import add, sub
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.index.grid_index import min_cell_gap_sq

Coord = Tuple[int, ...]

@functools.lru_cache(maxsize=None)
def _box(dims: int) -> Tuple[Tuple[Coord, ...], Dict[Coord, int]]:
    """Connection *offsets* (neighbor minus owning cell) with every
    component in ``[-2, 2]`` — all that the extractor or the coarsener
    produces for d <= 4 — own one bit each of a cell's offset mask, in
    lexicographic order: the offsets by bit, and each one's ``1 << bit``.
    Any other offset (hand-made summaries, d > 5) stays verbatim in the
    cell's ``extras``: the pair is exact for every input, and no mask
    outgrows ``5 ** 5`` bits whatever a client sends."""
    offsets = tuple(itertools.product(range(-2, 3), repeat=dims))
    return offsets, {offset: 1 << bit for bit, offset in enumerate(offsets)}


def pack_offsets(offsets: Iterable[Coord], dims: int) -> Tuple[int, FrozenSet[Coord]]:
    """``(mask, extras)`` of a cell's connection offsets."""
    bits = _box(dims)[1] if dims <= 5 else {}  # no mask beyond 5 ** 5 bits
    mask = 0
    extras: List[Coord] = []
    for offset in offsets:
        bit = bits.get(offset)
        if bit is None:
            extras.append(offset)
        else:
            mask |= bit
    return mask, frozenset(extras)


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

    The connection vector is stored in one of two forms, the other
    derived on request: the absolute neighbor coordinates (built by the
    extractor, returned by ``connections``) or the translation-invariant
    ``(mask, extras)`` of neighbor *offsets* (see :func:`_box`; held by the
    stored blob, read by the match kernel). A cell decoded from a blob
    holds only the latter: one int in place of a set of tuples.
    """

    __slots__ = (
        "location", "side_length", "population", "status", "_connections", "_packed",
    )

    def __init__(
        self,
        location: Coord,
        side_length: float,
        population: int,
        status: CellStatus,
        connections: FrozenSet[Coord] = frozenset(),
        packed: Optional[Tuple[int, FrozenSet[Coord]]] = None,
    ):
        if population < 0:
            raise ValueError("population must be non-negative")
        if side_length <= 0:
            raise ValueError("side_length must be positive")
        self.location = tuple(location)
        self.side_length = float(side_length)
        self.population = int(population)
        self.status = status
        # ``packed``, the offset form, stands in for ``connections``.
        self._connections = None if packed is not None else frozenset(connections)
        self._packed = packed

    @property
    def connections(self) -> FrozenSet[Coord]:
        stored = self._connections
        return stored if stored is not None else frozenset(self.neighbors())

    def neighbors(self) -> List[Coord]:
        """The connected cells' coordinates in lexicographic order."""
        if self._connections is not None:
            return sorted(self._connections)
        here = self.location
        return [tuple(map(add, here, off)) for off in self.connection_offsets()]

    def connection_offsets(self) -> List[Coord]:
        """Neighbor offsets (neighbor minus this cell's location) in
        lexicographic order — the order the blob stores them in."""
        if self._packed is None:
            here = self.location
            return [tuple(map(sub, other, here)) for other in self.neighbors()]
        mask, extras = self._packed
        offsets = list(extras)
        by_bit = _box(len(self.location))[0] if mask else ()
        while mask:
            low = mask & -mask
            offsets.append(by_bit[low.bit_length() - 1])
            mask ^= low
        return sorted(offsets)  # bits already ascend in this order

    def offset_block(self) -> List[int]:
        """``connection_offsets()`` flattened — the blob's connection
        block. The absolute form subtracts straight off its sorted
        neighbors (a translation keeps their order): no offset tuples."""
        if self._packed is not None:
            return list(itertools.chain.from_iterable(self.connection_offsets()))
        others = sorted(self._connections)
        flat = itertools.chain.from_iterable(others)
        return list(map(sub, flat, self.location * len(others)))

    def packed_offsets(self) -> Tuple[int, FrozenSet[Coord]]:
        """The ``(mask, extras)`` form of the connection vector."""
        if self._packed is not None:
            return self._packed
        return pack_offsets(self.connection_offsets(), len(self.location))

    def connection_count(self) -> int:
        if self._connections is not None:
            return len(self._connections)
        return self._packed[0].bit_count() + len(self._packed[1])

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
            f"pop={self.population}, conn={self.connection_count()})"
        )
