"""Minimum bounding rectangles (hyper-rectangles) in d dimensions.

MBRs are the unit of the locational feature index (Section 7.1): the
Pattern Base stores one MBR per archived cluster and organizes them in an
R-tree. They are also used internally by the R-tree node structure.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple


class MBR:
    """An axis-aligned minimum bounding rectangle.

    ``lows[i] <= highs[i]`` holds for every dimension ``i``. MBRs are
    immutable; all combinators return new instances.
    """

    __slots__ = ("lows", "highs")

    def __init__(self, lows: Sequence[float], highs: Sequence[float]):
        if len(lows) != len(highs):
            raise ValueError("lows and highs must have equal length")
        if not lows:
            raise ValueError("MBR must have at least one dimension")
        for low, high in zip(lows, highs):
            if low > high:
                raise ValueError(f"invalid MBR bounds: low {low} > high {high}")
        self.lows: Tuple[float, ...] = tuple(lows)
        self.highs: Tuple[float, ...] = tuple(highs)

    @classmethod
    def from_points(cls, points: Iterable[Sequence[float]]) -> "MBR":
        """Return the tightest MBR covering ``points`` (must be non-empty)."""
        iterator = iter(points)
        try:
            first = next(iterator)
        except StopIteration:
            raise ValueError("cannot build an MBR from zero points") from None
        lows = list(first)
        highs = list(first)
        for point in iterator:
            for i, value in enumerate(point):
                if value < lows[i]:
                    lows[i] = value
                elif value > highs[i]:
                    highs[i] = value
        return cls(lows, highs)

    def volume(self) -> float:
        """Return the d-dimensional volume (product of side lengths)."""
        result = 1.0
        for low, high in zip(self.lows, self.highs):
            result *= high - low
        return result

    def union(self, other: "MBR") -> "MBR":
        """Return the smallest MBR covering both operands."""
        return MBR(
            tuple(min(a, b) for a, b in zip(self.lows, other.lows)),
            tuple(max(a, b) for a, b in zip(self.highs, other.highs)),
        )

    def intersects(self, other: "MBR") -> bool:
        """Return True when the two MBRs overlap (boundary contact counts)."""
        for low_a, high_a, low_b, high_b in zip(
            self.lows, self.highs, other.lows, other.highs
        ):
            if low_a > high_b or low_b > high_a:
                return False
        return True

    def contains(self, other: "MBR") -> bool:
        """Return True when ``other`` lies entirely inside this MBR."""
        for low_a, high_a, low_b, high_b in zip(
            self.lows, self.highs, other.lows, other.highs
        ):
            if low_b < low_a or high_b > high_a:
                return False
        return True

    def enlargement(self, other: "MBR") -> float:
        """Return the volume increase of union(self, other) over self."""
        return self.union(other).volume() - self.volume()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MBR):
            return NotImplemented
        return self.lows == other.lows and self.highs == other.highs

    def __hash__(self) -> int:
        return hash((self.lows, self.highs))

    def __repr__(self) -> str:
        return f"MBR(lows={self.lows}, highs={self.highs})"
