"""Grid-cell-level cluster match (Section 7.2).

Given an alignment (an integer location-shifting vector applied to the
first SGS), every skeletal grid cell of ``Ca`` is compared against the
cell occupying the corresponding position in ``Cb``: status, density and
connectivity differences are aggregated under the analyst's feature
weights; a cell with no counterpart contributes the maximum difference
(its corresponding sub-region is empty). The total is normalized by the
number of compared positions, keeping the distance in [0, 1].

In position-sensitive mode the alignment is fixed to the zero vector, so
a single scan over the two cell sets suffices — matching the paper's
complexity claim.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import add, mul
from typing import Callable, Iterable, Optional, Sequence, Tuple

from repro.core.cells import Coord
from repro.core.sgs import SGS, CellRow
from repro.matching.metric import DistanceMetricSpec, relative_difference

# Cell-level comparison re-uses the non-locational weights, renormalized
# over the three per-cell comparable features (volume is a cluster-level
# feature; at cell level every compared position has unit volume).
_CELL_FEATURES = ("core_count", "avg_density", "avg_connectivity")


def _cell_feature_weights(spec: DistanceMetricSpec) -> Tuple[float, float, float]:
    weights = [spec.weight(name) for name in _CELL_FEATURES]
    total = sum(weights)
    if total <= 0:
        return (1.0 / 3, 1.0 / 3, 1.0 / 3)
    return tuple(weight / total for weight in weights)  # type: ignore[return-value]


def _aligned_distance(
    rows_a: Sequence[CellRow],
    size_b: int,
    pairs: Sequence[Tuple[int, CellRow]],
    weights: Tuple[float, float, float],
) -> float:
    """The distance given the matched ``(row number in A, row of B)``
    pairs in A's order; an unmatched cell of either summary costs 1.0.

    A matched pair's connectivity term is the Jaccard distance between
    the two cells' connection *offsets*: the pair sits at ``a + shift ==
    b``, so shifting a's neighbors by the same vector leaves every offset
    as it was, and no term depends on the alignment. The sum runs in A's
    cell order with one ``+ 1.0`` per unmatched cell: binary64 addition
    is not associative, and search order, ties and the golden answers
    were all fixed by that order."""
    if not pairs:
        return 1.0  # (|A| + |B|) / (|A| + |B|), exactly
    status_weight, density_weight, connectivity_weight = weights
    total = 0.0
    done = 0
    for number, (core_b, population_b, mask_b, extras_b) in pairs:
        for _ in range(number - done):
            total += 1.0
        done = number + 1
        core_a, population_a, mask_a, extras_a = rows_a[number]
        shared = (mask_a & mask_b).bit_count()
        either = (mask_a | mask_b).bit_count()
        if extras_a or extras_b:
            shared += len(extras_a & extras_b)
            either += len(extras_a | extras_b)
        total += (
            status_weight * (0.0 if core_a is core_b else 1.0)
            + density_weight * relative_difference(population_a, population_b)
            + connectivity_weight * (1.0 - shared / either if either else 0.0)
        )
    for _ in range(len(rows_a) - done):
        total += 1.0
    unmatched_b = size_b - len(pairs)
    total += float(unmatched_b)
    return total / (len(rows_a) + unmatched_b)


def cell_level_distance(
    sgs_a: SGS,
    sgs_b: SGS,
    spec: DistanceMetricSpec,
    alignment: Optional[Sequence[int]] = None,
) -> float:
    """Distance in [0, 1] between two SGS under a given alignment.

    ``alignment`` shifts ``sgs_a``'s cell locations; ``None`` means the
    zero vector (mandatory for position-sensitive matching).
    """
    if sgs_a.dimensions != sgs_b.dimensions:
        raise ValueError("cannot match SGS of different dimensionality")
    table_a, table_b = sgs_a.cell_table(), sgs_b.cell_table()
    targets: Iterable[Coord] = table_a
    if alignment is not None and any(alignment):
        if spec.position_sensitive:
            raise ValueError(
                "position-sensitive matching requires the zero alignment"
            )
        shift = tuple(int(s) for s in alignment)
        targets = (tuple(map(add, coord, shift)) for coord in table_a)
    pairs = [
        (number, table_b[target])
        for number, target in enumerate(targets)
        if target in table_b
    ]
    return _aligned_distance(
        list(table_a.values()), len(table_b), pairs, _cell_feature_weights(spec)
    )


def aligned_distances(
    sgs_a: SGS, sgs_b: SGS, spec: DistanceMetricSpec
) -> Callable[[Coord], float]:
    """:func:`cell_level_distance` of one SGS pair as a function of the
    alignment, for a search that scores many. The |A|·|B| location
    differences ``b - a`` are indexed once: a shift with no overlap
    answers 1.0 without scanning A, any other touches only its matched
    rows. The index is one sorted list of ints, ``(difference, row of A,
    row of B)`` in mixed radix, which costs the garbage collector nothing
    however large the process's heap."""
    if sgs_a.dimensions != sgs_b.dimensions:
        raise ValueError("cannot match SGS of different dimensionality")
    table_a, table_b = sgs_a.cell_table(), sgs_b.cell_table()
    rows_a, rows_b = list(table_a.values()), list(table_b.values())
    size_a, size_b, weights = len(rows_a), len(rows_b), _cell_feature_weights(spec)
    # Number each difference by its place in the box all of them fall in.
    lows, counts, radix = [], [], [1]
    for axis_a, axis_b in zip(zip(*table_a), zip(*table_b)):
        lows.append(min(axis_b) - max(axis_a))
        counts.append(max(axis_b) - min(axis_a) - lows[-1] + 1)
        radix.append(radix[-1] * counts[-1])

    def place(coord: Coord) -> int:  # linear: place(b) - place(a) numbers b - a
        return sum(map(mul, coord, radix))

    lowest, block = place(lows), size_a * size_b
    places_a = [place(a) + lowest for a in table_a]
    entries = sorted(
        ((place_b - place_a) * size_a + i) * size_b + j
        for j, place_b in enumerate(map(place, table_b))
        for i, place_a in enumerate(places_a)
    )

    def distance(shift: Coord) -> float:
        first = 0
        for s, low, count, weight in zip(shift, lows, counts, radix):
            if not 0 <= s - low < count:
                return 1.0  # outside the box: no cell of A lands on one of B
            first += (s - low) * weight * block
        start = bisect_left(entries, first)
        hits = entries[start : bisect_left(entries, first + block, start)]
        pairs = [((e - first) // size_b, rows_b[(e - first) % size_b]) for e in hits]
        return _aligned_distance(rows_a, size_b, pairs, weights)

    return distance
