"""A*-style anytime alignment search (Section 7.2).

For non-position-sensitive matching, one or more alignments (integer
location-shifting vectors) may minimize the cell-level distance between
two clusters. Exhaustive search over all overlapping shifts is exact but
expensive; for online matching the paper uses an anytime best-first
search: start from the alignment that overlaps the two clusters well
(the rounded centroid difference), repeatedly expand the most promising
frontier alignment into its 3^d - 1 neighbor shifts, and return the best
alignment found when the expansion budget runs out.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.core.sgs import SGS
from repro.matching.cell_match import aligned_distances, cell_level_distance
from repro.matching.metric import DistanceMetricSpec

Shift = Tuple[int, ...]


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of an alignment search."""

    distance: float
    alignment: Shift
    evaluated: int


def _centroid_shift(sgs_a: SGS, sgs_b: SGS) -> Shift:
    """Initial alignment: move Ca's cell-centroid onto Cb's."""
    dims = sgs_a.dimensions

    def centroid(sgs: SGS) -> Tuple[float, ...]:
        sums = [0.0] * dims
        for coord in sgs.rows:
            for i, c in enumerate(coord):
                sums[i] += c
        return tuple(total / len(sgs) for total in sums)

    ca = centroid(sgs_a)
    cb = centroid(sgs_b)
    return tuple(int(round(b - a)) for a, b in zip(ca, cb))


def _neighbor_shifts(shift: Shift) -> Iterator[Shift]:
    dims = len(shift)
    for delta in itertools.product((-1, 0, 1), repeat=dims):
        if any(delta):
            yield tuple(s + d for s, d in zip(shift, delta))


def anytime_alignment_search(
    sgs_a: SGS,
    sgs_b: SGS,
    spec: DistanceMetricSpec,
    max_expansions: int = 64,
) -> AlignmentResult:
    """Best-first anytime search for a low-distance alignment.

    ``max_expansions`` is the computation budget: the number of frontier
    alignments expanded into their neighbors. The best distance found so
    far is returned when the budget is exhausted — an anytime guarantee,
    not an optimality one.
    """
    if spec.position_sensitive:
        zero = (0,) * sgs_a.dimensions
        return AlignmentResult(
            cell_level_distance(sgs_a, sgs_b, spec, zero), zero, 1
        )
    distance_at = aligned_distances(sgs_a, sgs_b, spec)
    start = _centroid_shift(sgs_a, sgs_b)
    start_distance = distance_at(start)
    best = AlignmentResult(start_distance, start, 1)
    visited = {start}
    heap = [(start_distance, start)]
    evaluated = 1
    expansions = 0
    while heap and expansions < max_expansions:
        distance, shift = heapq.heappop(heap)
        expansions += 1
        for neighbor in _neighbor_shifts(shift):
            if neighbor in visited:
                continue
            visited.add(neighbor)
            neighbor_distance = distance_at(neighbor)
            evaluated += 1
            if neighbor_distance < best.distance:
                best = AlignmentResult(neighbor_distance, neighbor, evaluated)
            heapq.heappush(heap, (neighbor_distance, neighbor))
    return AlignmentResult(best.distance, best.alignment, evaluated)


def exhaustive_alignment_search(
    sgs_a: SGS,
    sgs_b: SGS,
    spec: DistanceMetricSpec,
    margin: int = 1,
) -> AlignmentResult:
    """Exact search over every alignment that overlaps the two clusters.

    Used offline and by the E8 ablation to quantify how close the anytime
    search gets. ``margin`` extends the overlap box by a few cells.
    """
    distance_at = aligned_distances(sgs_a, sgs_b, spec)
    dims = sgs_a.dimensions
    ranges = [
        range(min(b) - max(a) - margin, max(b) - min(a) + margin + 1)
        for a, b in zip(zip(*sgs_a.rows), zip(*sgs_b.rows))  # per axis
    ]
    best_distance = float("inf")
    best_shift: Shift = (0,) * dims
    evaluated = 0
    for shift in itertools.product(*ranges):
        distance = distance_at(shift)
        evaluated += 1
        if distance < best_distance:
            best_distance = distance
            best_shift = shift
    return AlignmentResult(best_distance, best_shift, evaluated)
