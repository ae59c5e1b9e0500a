"""Skeletal grid cells — the building blocks of SGS (Definition 4.4).

A summary holds each cell as a **row** keyed by the cell's location
(integer grid coordinate): ``(is_core, population, block)``, where
``block`` is the connection vector as the blob stores it — the neighbor
cells' *offsets*, one signed byte per dimension, in lexicographic order
— so a row is translation invariant. Offsets, not a fixed boolean vector
over "adjacent" cells: with cell diagonal = θr, directly connected core
cells can be up to ``ceil(sqrt(d))`` grid steps apart, so a ±1-step
vector cannot express all legal connections in d >= 2. The byte-accounting
model in ``repro.eval.memory`` still charges the paper's fixed per-cell
cost so storage comparisons stay commensurate.

:class:`SkeletalGridCell` is the paper's five-attribute cell as an
object: what hand-made summaries are built from and what ``SGS.cells``
hands out as a view of its rows. No summary keeps one.
"""

from __future__ import annotations

import enum
import functools
import itertools
import struct
from operator import add, sub
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

Coord = Tuple[int, ...]

#: One cell of a summary: core flag, population, connection block.
Row = Tuple[bool, int, bytes]


def connection_block(location: Coord, neighbors: Sequence[Coord]) -> bytes:
    """A row's connection block from the connected cells' coordinates in
    lexicographic order (a translation keeps their order, so the offsets
    come out sorted): subtracted straight into signed bytes, no offset
    tuples."""
    count = len(neighbors)
    flat = itertools.chain.from_iterable(neighbors)
    try:
        return struct.pack(
            f"<{count * len(location)}b", *map(sub, flat, location * count)
        )
    except struct.error:  # a component outside the signed byte
        for other in neighbors:
            if len(other) != len(location):
                raise ValueError(
                    f"connection {other}: not its cell's dimensionality"
                ) from None
            offset = list(map(sub, other, location))
            if not -128 <= min(offset) <= max(offset) <= 127:
                raise ValueError(
                    f"connection offset out of byte range: {offset}"
                ) from None
        raise


@functools.lru_cache(maxsize=None)
def _offsets_in(dims: int):
    """Reader of the connection offsets a block holds, in its order."""
    return struct.Struct(f"<{dims}b").iter_unpack


def block_neighbors(location: Coord, block: bytes) -> List[Coord]:
    """The connected cells' coordinates, in lexicographic order."""
    offsets = _offsets_in(len(location))(block)
    return [tuple(map(add, location, offset)) for offset in offsets]


@functools.lru_cache(maxsize=None)
def _box(dims: int) -> Dict[Coord, int]:
    """Connection offsets with every component in ``[-2, 2]`` — all that
    the extractor or the coarsener produces for d <= 4 — own one bit each
    of the match kernel's offset mask, numbered in lexicographic order:
    each one's ``1 << bit``. Any other offset (hand-made summaries,
    d > 5) stays verbatim in the kernel row's ``extras``: the pair is
    exact for every input, and no mask outgrows ``5 ** 5`` bits whatever
    a client sends."""
    offsets = itertools.product(range(-2, 3), repeat=dims)
    return {offset: 1 << bit for bit, offset in enumerate(offsets)}


def pack_offsets(block: bytes, dims: int) -> Tuple[int, FrozenSet[Coord]]:
    """``(mask, extras)`` of a connection block: the set form the match
    kernel intersects. Derived where the kernel first reads a summary,
    never on the stream path."""
    bits = _box(dims) if dims <= 5 else {}  # no mask beyond 5 ** 5 bits
    mask = 0
    extras: List[Coord] = []
    for offset in _offsets_in(dims)(block):
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
    """

    __slots__ = ("location", "side_length", "population", "status", "connections")

    def __init__(
        self,
        location: Coord,
        side_length: float,
        population: int,
        status: CellStatus,
        connections: Iterable[Coord] = (),
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

    def neighbors(self) -> List[Coord]:
        """The connected cells' coordinates in lexicographic order."""
        return sorted(self.connections)

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

    def __repr__(self) -> str:
        return (
            f"SkeletalGridCell(loc={self.location}, status={self.status.value}, "
            f"pop={self.population}, conn={len(self.connections)})"
        )
