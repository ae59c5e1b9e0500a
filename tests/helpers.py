"""Shared helpers for the test suite, imported explicitly as
``from tests.helpers import ...``.

These used to live in ``tests/conftest.py`` and were imported as
``from conftest import ...`` — which broke collection from the repo
root, where ``benchmarks/conftest.py`` shadowed the ambiguous
``conftest`` module name. Plain module + explicit package import keeps
them unambiguous under any invocation.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import List, Sequence, Tuple

from hypothesis import strategies as st

from repro.core.cells import CellStatus, SkeletalGridCell
from repro.core.sgs import SGS
from repro.matching.alignment import _centroid_shift, _neighbor_shifts
from repro.matching.metric import DistanceMetricSpec, relative_difference
from repro.streams.objects import StreamObject
from repro.streams.source import ListSource
from repro.streams.windows import CountBasedWindowSpec, Windower

#: The two arms of ``CoordStore``'s kernel dispatch, as the
#: ``kernel_arm`` fixture (``tests/conftest.py``) names them.
KERNEL_ARMS = ("scalar", "vector")


def make_objects(
    points: Sequence[Tuple[float, ...]],
    last_window: int = 10,
    first_window: int = 0,
) -> List[StreamObject]:
    """Stream objects from raw points, pre-stamped as alive in a range."""
    objects = []
    for i, coords in enumerate(points):
        obj = StreamObject(i, tuple(coords))
        obj.first_window = first_window
        obj.last_window = last_window
        objects.append(obj)
    return objects


def clustered_points(
    centers: Sequence[Tuple[float, ...]],
    per_cluster: int,
    std: float = 0.2,
    noise: int = 0,
    bounds: float = 10.0,
    seed: int = 0,
) -> List[Tuple[float, ...]]:
    """Gaussian blobs plus uniform noise, shuffled deterministically."""
    rng = random.Random(seed)
    dims = len(centers[0])
    points: List[Tuple[float, ...]] = []
    for center in centers:
        for _ in range(per_cluster):
            points.append(tuple(rng.gauss(c, std) for c in center))
    for _ in range(noise):
        points.append(tuple(rng.uniform(0, bounds) for _ in range(dims)))
    rng.shuffle(points)
    return points


def stream_batches(points, win: int, slide: int):
    """Window batches over an in-memory point list."""
    spec = CountBasedWindowSpec(win=win, slide=slide)
    return Windower(spec).batches(ListSource(points))


# ----------------------------------------------------------------------
# Reference oracle of the cell-level match
# ----------------------------------------------------------------------
#
# The dict walk the match kernel replaced, kept verbatim as the oracle
# the kernel is pinned to bit for bit: it re-shifts every absolute
# connection coordinate per pair and builds one target tuple per cell
# per shift. ``reference_*_search`` are the two alignment searches
# driven by it.


def _reference_weights(spec):
    weights = [
        spec.weight(name)
        for name in ("core_count", "avg_density", "avg_connectivity")
    ]
    total = sum(weights)
    if total <= 0:
        return (1.0 / 3, 1.0 / 3, 1.0 / 3)
    return tuple(weight / total for weight in weights)


def _reference_connection_difference(cell_a, cell_b, shift):
    conn_a = {
        tuple(c + s for c, s in zip(coord, shift))
        for coord in cell_a.connections
    }
    conn_b = set(cell_b.connections)
    if not conn_a and not conn_b:
        return 0.0
    union = conn_a | conn_b
    return 1.0 - len(conn_a & conn_b) / len(union)


def reference_cell_level_distance(sgs_a, sgs_b, spec, alignment=None):
    if sgs_a.dimensions != sgs_b.dimensions:
        raise ValueError("cannot match SGS of different dimensionality")
    if alignment is None:
        shift = (0,) * sgs_a.dimensions
    else:
        if spec.position_sensitive and any(alignment):
            raise ValueError(
                "position-sensitive matching requires the zero alignment"
            )
        shift = tuple(int(s) for s in alignment)
    status_weight, density_weight, connectivity_weight = _reference_weights(spec)
    cells_b = sgs_b.cells
    total = 0.0
    compared = 0
    matched_b = 0
    for coord, cell_a in sgs_a.cells.items():
        target = tuple(c + s for c, s in zip(coord, shift))
        cell_b = cells_b.get(target)
        compared += 1
        if cell_b is None:
            total += 1.0
        else:
            matched_b += 1
            status_diff = 0.0 if cell_a.status is cell_b.status else 1.0
            density_diff = relative_difference(
                float(cell_a.population), float(cell_b.population)
            )
            total += (
                status_weight * status_diff
                + density_weight * density_diff
                + connectivity_weight
                * _reference_connection_difference(cell_a, cell_b, shift)
            )
    unmatched_b = len(cells_b) - matched_b
    total += float(unmatched_b)
    compared += unmatched_b
    return total / compared


def reference_anytime_search(sgs_a, sgs_b, spec, max_expansions=64):
    """``(distance, alignment, evaluated)`` of the anytime search, every
    shift scored by the reference distance."""
    if spec.position_sensitive:
        zero = (0,) * sgs_a.dimensions
        return reference_cell_level_distance(sgs_a, sgs_b, spec, zero), zero, 1
    start = _centroid_shift(sgs_a, sgs_b)
    best_distance = reference_cell_level_distance(sgs_a, sgs_b, spec, start)
    best_shift = start
    visited = {start}
    heap = [(best_distance, start)]
    evaluated = 1
    expansions = 0
    while heap and expansions < max_expansions:
        _, shift = heapq.heappop(heap)
        expansions += 1
        for neighbor in _neighbor_shifts(shift):
            if neighbor in visited:
                continue
            visited.add(neighbor)
            distance = reference_cell_level_distance(sgs_a, sgs_b, spec, neighbor)
            evaluated += 1
            if distance < best_distance:
                best_distance, best_shift = distance, neighbor
            heapq.heappush(heap, (distance, neighbor))
    return best_distance, best_shift, evaluated


def overlap_box(sgs_a, sgs_b, margin=1):
    """Per-dimension ranges of every shift that overlaps the two
    summaries' bounding boxes, ``margin`` cells wider on each side."""
    ranges = []
    for i in range(sgs_a.dimensions):
        a = [coord[i] for coord in sgs_a.cells]
        b = [coord[i] for coord in sgs_b.cells]
        ranges.append(range(min(b) - max(a) - margin, max(b) - min(a) + margin + 1))
    return ranges


def reference_exhaustive_search(sgs_a, sgs_b, spec, margin=1):
    best_distance, best_shift, evaluated = float("inf"), (0,) * sgs_a.dimensions, 0
    for shift in itertools.product(*overlap_box(sgs_a, sgs_b, margin)):
        distance = reference_cell_level_distance(sgs_a, sgs_b, spec, shift)
        evaluated += 1
        if distance < best_distance:
            best_distance, best_shift = distance, shift
    return best_distance, best_shift, evaluated


# ----------------------------------------------------------------------
# Hypothesis strategies for hand-made summaries (no NumPy: the scalar
# CI job runs every test built on them)
# ----------------------------------------------------------------------

#: Half-width of the coordinate box per dimensionality: wide enough for
#: 60 distinct cells, small enough that two summaries overlap in many
#: shifts and that the overlap box stays enumerable.
_COORD_SPAN = {1: 30, 2: 4, 3: 2, 4: 1}
#: Offset components beyond the kernel's in-box range, up to the last
#: values the blob's signed byte can hold.
_FAR = (-128, -127, -3, 3, 50, 127)


@st.composite
def summaries(draw, dims, origin=None):
    """An SGS of 1-60 cells: any mix of core and edge cells (edge-only
    included), populations from 0, connection sets from empty to every
    in-box offset, a few offsets at the byte range's ends. Hypothesis
    picks the shape; a seeded ``random.Random`` fills the cells, so big
    summaries stay cheap to draw."""
    span = _COORD_SPAN[dims]
    origin = origin or (0,) * dims
    size = min(draw(st.integers(1, 60)), (2 * span + 1) ** dims)
    statuses = draw(
        st.sampled_from(
            [(CellStatus.EDGE,), (CellStatus.CORE,), (CellStatus.CORE, CellStatus.EDGE)]
        )
    )
    density = draw(st.sampled_from(["none", "some", "full"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    # "full": every in-box offset the blob's one-byte count can hold.
    reach = 2 if 5**dims <= 255 else 1
    every = list(itertools.product(range(-reach, reach + 1), repeat=dims))
    box = list(itertools.product(range(-span, span + 1), repeat=dims))
    cells = []
    for location in rng.sample(box, size):
        if density == "none":
            offsets = []
        elif density == "full":
            offsets = every
        else:
            offsets = [
                tuple(
                    rng.choice(_FAR) if rng.random() < 0.1 else rng.randint(-2, 2)
                    for _ in range(dims)
                )
                for _ in range(rng.randint(0, 12))
            ]
        location = tuple(c + o for c, o in zip(location, origin))
        cells.append(
            SkeletalGridCell(
                location,
                0.5,
                rng.randint(0, 40),
                rng.choice(statuses),
                frozenset(
                    tuple(c + o for c, o in zip(location, offset))
                    for offset in offsets
                ),
            )
        )
    return SGS(cells, 0.5)


@st.composite
def summary_pairs(draw, max_dims=4):
    """Two summaries of one dimensionality, the second anywhere on the
    grid (negative coordinates included)."""
    dims = draw(st.integers(1, max_dims))
    origin = tuple(draw(st.integers(-300, 300)) for _ in range(dims))
    return draw(summaries(dims)), draw(summaries(dims, origin))


@st.composite
def metric_specs(draw, position_sensitive=None):
    """Metric specs: default weights, random ones, and weights that are
    zero on all three cell-level features (the ``1/3`` fallback)."""
    if position_sensitive is None:
        position_sensitive = draw(st.booleans())
    kind = draw(st.sampled_from(["default", "volume-only", "random"]))
    if kind == "default":
        return DistanceMetricSpec(position_sensitive=position_sensitive)
    if kind == "volume-only":
        weights = {"volume": 1.0}
    else:
        parts = draw(st.lists(st.integers(0, 9), min_size=4, max_size=4))
        total = sum(parts) or 1
        parts = parts if sum(parts) else [1, 0, 0, 0]
        names = ("volume", "core_count", "avg_density", "avg_connectivity")
        weights = {name: part / total for name, part in zip(names, parts)}
    return DistanceMetricSpec(position_sensitive=position_sensitive, weights=weights)
