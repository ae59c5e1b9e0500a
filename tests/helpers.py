"""Shared helpers for the test suite, imported explicitly as
``from tests.helpers import ...``.

These used to live in ``tests/conftest.py`` and were imported as
``from conftest import ...`` — which broke collection from the repo
root, where ``benchmarks/conftest.py`` shadowed the ambiguous
``conftest`` module name. Plain module + explicit package import keeps
them unambiguous under any invocation.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import math
import os
import random
import struct
import tempfile
from operator import add, sub
from typing import Dict, List, Sequence, Tuple

from hypothesis import strategies as st

from repro.archive.archiver import ArchivePolicy
from repro.archive.persistence import dump_pattern_base, load_pattern_base
from repro.clustering.cluster import Cluster
from repro.clustering.extra_n import ExtraN
from repro.core.cells import CellStatus, SkeletalGridCell
from repro.core.csgs import CSGS, WindowOutput
from repro.core.features import ClusterFeatures
from repro.core.lifespan import NeighborhoodTracker, ObjectState
from repro.core.multires import coarsen_sgs
from repro.core.serialize import sgs_to_bytes, sgs_to_dict
from repro.core.sgs import SGS
from repro.geometry.coordstore import CoordStore
from repro.geometry.mbr import MBR
from repro.index.grid_index import Coord, GridIndex, OFFSET_PRUNE_EPS
from repro.index.provider import make_provider
from repro.index.rtree import RTree
from repro.matching.alignment import _centroid_shift, _neighbor_shifts
from repro.matching.metric import DistanceMetricSpec, relative_difference
from repro.retrieval.engine import MatchEngine
from repro.retrieval.inverted import canonical_origin
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


def stamped(oid: int, coords, first: int, last: int) -> StreamObject:
    """One stream object alive in windows ``first..last``."""
    obj = StreamObject(oid, tuple(coords))
    obj.first_window, obj.last_window = first, last
    return obj


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
# driven by it. It reads cell views (``sgs.cells``), and ``SGS.cells``
# builds a fresh O(cells) view on every read: a caller scoring many
# shifts builds each summary's view once and passes it in.


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


def reference_cell_level_distance(cells_a, cells_b, spec, alignment=None):
    """The distance of two summaries given as their cell views."""
    dimensions = len(next(iter(cells_a)))
    if dimensions != len(next(iter(cells_b))):
        raise ValueError("cannot match SGS of different dimensionality")
    if alignment is None:
        shift = (0,) * dimensions
    else:
        if spec.position_sensitive and any(alignment):
            raise ValueError(
                "position-sensitive matching requires the zero alignment"
            )
        shift = tuple(int(s) for s in alignment)
    status_weight, density_weight, connectivity_weight = _reference_weights(spec)
    total = 0.0
    compared = 0
    matched_b = 0
    for coord, cell_a in cells_a.items():
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
    cells_a, cells_b = sgs_a.cells, sgs_b.cells
    if spec.position_sensitive:
        zero = (0,) * sgs_a.dimensions
        return reference_cell_level_distance(cells_a, cells_b, spec, zero), zero, 1
    start = _centroid_shift(sgs_a, sgs_b)
    best_distance = reference_cell_level_distance(cells_a, cells_b, spec, start)
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
            distance = reference_cell_level_distance(cells_a, cells_b, spec, neighbor)
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
        a = [coord[i] for coord in sgs_a.rows]
        b = [coord[i] for coord in sgs_b.rows]
        ranges.append(range(min(b) - max(a) - margin, max(b) - min(a) + margin + 1))
    return ranges


def reference_exhaustive_search(sgs_a, sgs_b, spec, margin=1):
    best_distance, best_shift, evaluated = float("inf"), (0,) * sgs_a.dimensions, 0
    cells_a, cells_b = sgs_a.cells, sgs_b.cells
    for shift in itertools.product(*overlap_box(sgs_a, sgs_b, margin)):
        distance = reference_cell_level_distance(cells_a, cells_b, spec, shift)
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
    return SGS.from_cells(cells, 0.5)


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


# ----------------------------------------------------------------------
# Reference oracle of the coarse-rung cache
# ----------------------------------------------------------------------
#
# The ladder cache the record-keyed one replaced, kept verbatim as the
# oracle: an entry is valid while ``pattern.sgs`` is the very object it
# was built from, so validating one hydrates the stored summary, a
# summary the store's LRU dropped rebuilds the whole ladder, and level 0
# is held by the cache.


class ReferenceLadderEngine(MatchEngine):
    def pattern_at_level(self, pattern, level, canonical=True):
        key = (pattern.pattern_id, canonical)
        cached = self._ladders.get(key)
        if cached is None or cached[0] is not pattern.sgs:
            root = canonical_origin(pattern.sgs) if canonical else pattern.sgs
            cached = (pattern.sgs, [root])
            self._ladders[key] = cached
        ladder = cached[1]
        while len(ladder) <= level:
            ladder.append(coarsen_sgs(ladder[-1], self.ladder_factor))
        return ladder[level]


# ----------------------------------------------------------------------
# Reference oracles of neighbour-cell discovery and of the blob encoder
# ----------------------------------------------------------------------
#
# The bodies the coordinate trie, its gap budget and the per-cell
# encoder replaced, kept verbatim: the memoized offset tables, the cold
# walk that probes the cell map with every offset of the sphere-pruned
# table, and the encoder that range-checks and packs one connection at
# a time. The >255 refusal is the one place the encoders differ on
# purpose: this one lets ``struct.error`` escape.

def min_cell_gap_sq(offset: Sequence[int], side: float) -> float:
    """Minimum squared distance between two grid cells ``offset`` apart.

    Cells are closed axis-aligned cubes of the given ``side``; the
    minimum is attained corner-to-corner, ``(|delta| - 1) * side`` per
    dimension with a nonzero delta (0.0 for touching/overlapping cells).
    """
    sq = 0.0
    for delta in offset:
        if delta:
            gap = (abs(delta) - 1) * side
            sq += gap * gap
    return sq


_FULL_OFFSETS: Dict[Tuple[int, int], Tuple[Coord, ...]] = {}
_PRUNED_OFFSETS: Dict[Tuple[int, int, float], Tuple[Coord, ...]] = {}


def full_offset_table(dimensions: int, reach: int) -> Tuple[Coord, ...]:
    """The unpruned ``(2*reach + 1)^d`` relative-cell offset cube.

    Memoized per ``(dimensions, reach)`` and shared across instances;
    offsets are in lexicographic order (first dimension slowest).
    """
    key = (dimensions, reach)
    table = _FULL_OFFSETS.get(key)
    if table is None:
        span = range(-reach, reach + 1)
        offsets: List[Coord] = [()]
        for _ in range(dimensions):
            offsets = [
                prefix + (delta,) for prefix in offsets for delta in span
            ]
        table = _FULL_OFFSETS[key] = tuple(offsets)
    return table


def sphere_pruned_offsets(
    dimensions: int, reach: int, side_over_range: float
) -> Tuple[Coord, ...]:
    """The offsets a θr range query must visit, sphere-pruned.

    Drops every offset of the full cube whose minimum cell-to-cell gap
    exceeds θr — those cells cannot intersect the θr-ball of *any* query
    point in the base cell. The predicate is evaluated in units of θr
    (``side_over_range`` is ``cell_side / θr``), so the table depends
    only on ``(dimensions, reach, side/θr)`` and is memoized per that
    key at module level, shared by every :class:`GridIndex` instance
    (and by the ``auto`` backend's heuristic).

    With the paper's diagonal sizing (side = θr/√d, reach = ⌈√d⌉) the
    corner gap equals θr exactly for d <= 4 — nothing is prunable — but
    from 5-D on most of the cube goes (e.g. 6095 of 16807 cells remain
    at d=5), and non-diagonal sizings prune at any dimensionality.
    """
    key = (dimensions, reach, side_over_range)
    table = _PRUNED_OFFSETS.get(key)
    if table is None:
        limit = 1.0 + OFFSET_PRUNE_EPS
        table = tuple(
            offset
            for offset in full_offset_table(dimensions, reach)
            if min_cell_gap_sq(offset, side_over_range) <= limit
        )
        _PRUNED_OFFSETS[key] = table
    return table


def grid_offset_table(grid) -> Tuple[Coord, ...]:
    """The sphere-pruned table a grid's walk used to filter by."""
    return sphere_pruned_offsets(
        grid.dimensions, grid.reach, grid.side / grid.theta_range
    )


def reference_reachable_buckets(grid, base):
    """``(offset, bucket)`` of every occupied cell the offset table
    reaches from ``base``, in table order."""
    entry = []
    cells = grid._cells
    for offset in grid_offset_table(grid):
        bucket = cells.get(tuple(map(add, base, offset)))
        if bucket is not None:
            entry.append((offset, bucket))
    return entry


def trie_leaves(grid) -> dict:
    """``{coord: bucket}`` of the grid trie's leaves; refuses an empty
    interior node on the way (a death must take it along)."""
    level = [((), grid._trie)]
    for _ in range(grid.dimensions):
        for prefix, node in level:
            assert node or not prefix, f"empty interior node at {prefix}"
        level = [
            (prefix + (value,), child)
            for prefix, node in level
            for value, child in node.items()
        ]
    return dict(level)


def assert_trie_mirrors_cells(grid, bases=None) -> None:
    """The trie's invariant — its leaves are exactly the items of
    ``_cells``, the very bucket objects, none empty — and, read through
    the walk, from every base in ``bases`` (default: every occupied
    cell): the reference walk's offsets and buckets, in its order."""
    leaves = trie_leaves(grid)
    assert leaves.keys() == grid._cells.keys()
    for coord, bucket in grid._cells.items():
        assert leaves[coord] is bucket, f"trie holds a stale bucket at {coord}"
        assert bucket, f"empty bucket left at {coord}"
    for base in list(grid._cells) if bases is None else bases:
        walked = grid._reachable_buckets(base)
        expected = reference_reachable_buckets(grid, base)
        assert [offset for offset, _ in walked] == [
            offset for offset, _ in expected
        ], f"offsets differ from the table walk at base {base}"
        for (_, bucket), (_, wanted) in zip(walked, expected):
            assert bucket is wanted


# ----------------------------------------------------------------------
# The R-tree behind the neighbour-provider protocol
# ----------------------------------------------------------------------

#: The name the parity suites give :class:`RTreePointIndex` next to the
#: registered backends.
RTREE = "rtree"


class RTreePointIndex:
    """Neighbor search through the Guttman R-tree, as a test provider.

    The R-tree is the Pattern Base's locational index, not a
    ``--index-backend``; behind this adapter the provider parity and
    oracle-stress suites keep driving its insert / delete / search
    under churn. Objects are stored as degenerate point MBRs; a range
    query searches the tree with the bounding box of the θr-ball and
    refines candidates with the exact squared distance.
    """

    def __init__(self, theta_range: float, dimensions: int, max_entries: int = 8):
        if theta_range <= 0:
            raise ValueError("theta_range must be positive")
        if dimensions < 1:
            raise ValueError("dimensions must be positive")
        self.theta_range = float(theta_range)
        self.dimensions = int(dimensions)
        self._tree = RTree(max_entries=max_entries)
        self._entries: Dict[int, Tuple[MBR, StreamObject]] = {}
        self._store = CoordStore(self.dimensions)
        self.stats = {"queries": 0, "candidates": 0}

    def insert(self, obj: StreamObject) -> None:
        # Store first: it validates (duplicate oid, dimensionality,
        # finiteness) and raises before the tree or the entry map is
        # touched.
        self._store.add(obj)
        box = MBR.from_points([obj.coords])
        self._tree.insert(box, obj)
        self._entries[obj.oid] = (box, obj)

    def remove(self, obj: StreamObject) -> None:
        entry = self._entries.pop(obj.oid, None)
        if entry is None:
            raise KeyError(f"object {obj.oid} not present in r-tree")
        self._tree.delete(entry[0], entry[1])
        self._store.remove(obj.oid)

    def purge_expired(self, window_index: int) -> int:
        expired = [
            obj
            for _, obj in self._entries.values()
            if obj.last_window < window_index
        ]
        for obj in expired:
            self.remove(obj)
        return len(expired)

    def range_query(self, coords, exclude_oid: int = -1) -> List[StreamObject]:
        radius = self.theta_range
        ball = MBR(
            tuple(value - radius for value in coords),
            tuple(value + radius for value in coords),
        )
        candidates = self._tree.search(ball)
        self.stats["queries"] += 1
        self.stats["candidates"] += len(candidates)
        return self._store.refine(
            candidates, coords, radius * radius, exclude_oid
        )

    def range_query_many(self, queries) -> List[List[StreamObject]]:
        return [
            self.range_query(coords, exclude_oid=exclude_oid)
            for coords, exclude_oid in queries
        ]

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter([obj for _, obj in self._entries.values()])


def build_provider(backend: str, theta_range: float, dimensions: int):
    """A registered backend by name, or :class:`RTreePointIndex` for
    :data:`RTREE`."""
    if backend == RTREE:
        return RTreePointIndex(theta_range, dimensions)
    return make_provider(backend, theta_range, dimensions)


def on_backend(backend: str, theta_range: float, dimensions: int) -> dict:
    """Constructor keywords that put a C-SGS, tracker or shared C-SGS on
    ``backend``: the name itself, or an :class:`RTreePointIndex`."""
    if backend == RTREE:
        return {"provider": RTreePointIndex(theta_range, dimensions)}
    return {"backend": backend}


def _connection_offsets(cell):
    """Neighbor offsets (neighbor minus the cell's location) in
    lexicographic order — the order the blob stores them in."""
    return [tuple(map(sub, other, cell.location)) for other in cell.neighbors()]


def reference_sgs_to_bytes(sgs) -> bytes:
    dims = sgs.dimensions
    cells = sgs.cells
    out = [
        b"SGS1",
        struct.pack(
            "<BdiiiI",
            dims,
            sgs.side_length,
            sgs.level,
            sgs.cluster_id,
            sgs.window_index,
            len(cells),
        ),
    ]
    for cell in cells.values():
        offsets = _connection_offsets(cell)
        out.append(struct.pack(f"<{dims}i", *cell.location))
        out.append(
            struct.pack(
                "<BIB", 1 if cell.is_core else 0, cell.population, len(offsets)
            )
        )
        for offset in offsets:
            if any(not -128 <= off <= 127 for off in offset):
                raise ValueError(
                    f"connection offset out of byte range: {list(offset)}"
                )
            out.append(struct.pack(f"<{dims}b", *offset))
    return b"".join(out)


# ----------------------------------------------------------------------
# Reference oracle of C-SGS insertion
# ----------------------------------------------------------------------
#
# The insertion loop the saturation short-circuit and the per-cell fold
# replaced, kept verbatim as the oracle the fast path is pinned to after
# every insertion: every neighbor's histogram is bumped and its career
# recomputed unconditionally, no histogram is ever released, and C-SGS
# records lifespans once per (new object, neighbor) pair.


class ReferenceTracker(NeighborhoodTracker):
    def _insert_prepared(self, obj, neighbor_objs, cell=None):
        window = self.current_window
        theta_count = self.theta_count
        if self._manage_cells:
            cell = self.cells.insert(obj)
        elif cell is None:
            cell = self.cells.cell_coord(obj.coords)
        state = ObjectState(obj, cell)
        self.states[obj.oid] = state
        self._expiry_buckets.setdefault(obj.last_window, []).append(state)

        neighbors = [self.states[nb.oid] for nb in neighbor_objs]

        # New object's own careers.
        hist = state.neighbor_hist
        for nb in neighbors:
            key = nb.obj.last_window
            hist[key] = hist.get(key, 0) + 1
        state.core_until = state.compute_core_until(window, theta_count)
        threshold = max(state.core_until, window - 1)
        state.noncore_neighbors = [
            nb
            for nb in neighbors
            if min(obj.last_window, nb.obj.last_window) > threshold
        ]

        # Impact on existing neighbors: status promotion / prolong.
        for nb in neighbors:
            nb_hist = nb.neighbor_hist
            key = obj.last_window
            nb_hist[key] = nb_hist.get(key, 0) + 1
            old = nb.core_until
            new = nb.compute_core_until(window, theta_count)
            if new > old:
                nb.core_until = new
                snapshot = list(nb.noncore_neighbors)
                if self._on_extension is not None:
                    self._on_extension(nb, old, new, snapshot)
                nb.noncore_neighbors = [
                    other
                    for other in nb.noncore_neighbors
                    if other.obj.last_window >= window
                    and min(nb.obj.last_window, other.obj.last_window) > new
                ]
            if min(nb.obj.last_window, obj.last_window) > max(
                nb.core_until, window - 1
            ):
                nb.noncore_neighbors.append(state)

        if self._on_insert is not None:
            self._on_insert(state, neighbors)
        return state


class ReferenceCSGS(CSGS):
    """C-SGS on the reference tracker, lifespans recorded pair by pair."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Same attributes, the reference loop: the tracker is built
        # inside ``CSGS.__init__`` with the handlers already bound.
        self.tracker.__class__ = ReferenceTracker

    def _handle_insert(self, state, neighbors):
        window = self.tracker.current_window
        if state.core_until >= window:
            cell = state.cell
            if state.core_until > self._cell_core_until.get(cell, -1):
                self._cell_core_until[cell] = state.core_until
        for nb in neighbors:
            if nb.cell != state.cell:
                self._record_pair(state, nb)

    def _record_pair(self, a, b):
        """Record connection/attachment lifespans implied by a new
        neighbor pair (a just arrived, b preexisting, different cells)."""
        window = self.tracker.current_window
        conn = min(a.core_until, b.core_until)
        if conn >= window:
            key = (a.cell, b.cell) if a.cell <= b.cell else (b.cell, a.cell)
            if conn > self._core_connections.get(key, -1):
                self._core_connections[key] = conn
        attach_ab = min(a.obj.last_window, b.core_until)
        if attach_ab >= window:
            key = (a.cell, b.cell)
            if attach_ab > self._edge_attachments.get(key, -1):
                self._edge_attachments[key] = attach_ab
        attach_ba = min(b.obj.last_window, a.core_until)
        if attach_ba >= window:
            key = (b.cell, a.cell)
            if attach_ba > self._edge_attachments.get(key, -1):
                self._edge_attachments[key] = attach_ba


class ReferenceExtraN(ExtraN):
    """Extra-N on the reference tracker."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracker.__class__ = ReferenceTracker


def record_extensions(tracker) -> list:
    """Log every ``on_extension`` event the tracker fires from now on —
    ``(oid, old, new, snapshot oids)`` — ahead of its consumer."""
    log = []
    consumer = tracker._on_extension

    def recording(state, old, new, snapshot):
        log.append((state.oid, old, new, [other.oid for other in snapshot]))
        if consumer is not None:
            consumer(state, old, new, snapshot)

    tracker._on_extension = recording
    return log


def career_state(tracker) -> dict:
    """What the insertion loop decides per alive object: its core career
    and its non-core-career neighbor list (oids, in order)."""
    return {
        oid: (state.core_until, [nb.oid for nb in state.noncore_neighbors])
        for oid, state in tracker.states.items()
    }


def lifespan_maps(csgs) -> tuple:
    """C-SGS's three lifespan maps, as plain dicts."""
    return (
        dict(csgs._cell_core_until),
        dict(csgs._core_connections),
        dict(csgs._edge_attachments),
    )


def window_output_dict(output) -> dict:
    """A ``WindowOutput`` in comparable form: members and summaries."""
    return {
        "window": output.window_index,
        "clusters": [
            (
                sorted(obj.oid for obj in cluster.core_objects),
                sorted(obj.oid for obj in cluster.edge_objects),
            )
            for cluster in output.clusters
        ],
        "summaries": [sgs_to_dict(sgs) for sgs in output.summaries],
    }


@st.composite
def career_streams(draw):
    """``(dims, θr, θc, ops)`` — a flat op list of ``("advance", k)`` and
    ``("insert", coords, lifespan)``. Hypothesis picks the shape, a
    seeded ``random.Random`` fills it: 1-4 D; θc in {1, 2, 8}; points
    spread over a few cells, packed into one cell, or drawn from a small
    pool (exact duplicates); lifespans equal or non-monotone; a crowd
    shape with one neighborhood of more than 100."""
    dims = draw(st.integers(1, 4))
    theta_count = draw(st.sampled_from([1, 2, 8]))
    layout = draw(st.sampled_from(["spread", "one-cell", "pool", "crowd"]))
    lifespans = draw(st.sampled_from(["equal", "mixed"]))
    count = 130 if layout == "crowd" else draw(st.integers(0, 60))
    advance_rate = draw(st.sampled_from([0.0, 0.1, 0.4]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    theta_range = 1.0
    side = theta_range / dims**0.5  # the grid's cell side
    if layout in ("one-cell", "crowd"):
        extent = 0.95 * side  # every pair within θr, all in cell (0,…)
    else:
        extent = 3.0 * theta_range
    pool = [
        tuple(rng.uniform(0.0, extent) for _ in range(dims)) for _ in range(8)
    ]
    ops = []
    for _ in range(count):
        if rng.random() < advance_rate:
            ops.append(("advance", rng.randint(1, 2)))
        if layout == "pool":
            coords = rng.choice(pool)
        else:
            coords = tuple(rng.uniform(0.0, extent) for _ in range(dims))
        lifespan = 3 if lifespans == "equal" else rng.randint(0, 5)
        ops.append(("insert", coords, lifespan))
    ops.append(("advance", 1))
    return dims, theta_range, theta_count, ops


# ----------------------------------------------------------------------
# Reference oracles of the summary's forms
# ----------------------------------------------------------------------
#
# The bodies the row table replaced, kept as the oracles the rows are
# pinned to: the output stage building one cell object per cell from a
# set of absolute neighbor coordinates (and probing ``_edge_attachments``
# once per core cell x attached cell), the blob decoder unpacking field
# by field into cell objects, and the MBR, the features, the kernel
# table and the coarser level each walked off cell objects.


def reference_emit(csgs, window):
    """``CSGS._emit`` as it was: the summaries from cell objects."""
    grid = csgs.tracker.cells
    states = csgs.tracker.states
    core_cells = {
        coord
        for coord, until in csgs._cell_core_until.items()
        if until >= window and grid.cell_population(coord) > 0
    }
    adjacency = {coord: [] for coord in core_cells}
    for (a, b), until in csgs._core_connections.items():
        if until >= window and a in core_cells and b in core_cells:
            adjacency[a].append(b)
            adjacency[b].append(a)
    for neighbors in adjacency.values():
        neighbors.sort()
    group_of = {}
    group_cores = []
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

    edge_candidates = set()
    for (edge_coord, core_coord), until in csgs._edge_attachments.items():
        if until < window or core_coord not in core_cells:
            continue
        if edge_coord in core_cells and (
            group_of[edge_coord] == group_of[core_coord]
        ):
            continue
        if grid.cell_population(edge_coord) > 0:
            edge_candidates.add(edge_coord)

    n_groups = len(group_cores)
    group_edge_members = [{} for _ in range(n_groups)]
    group_edge_cells = [{} for _ in range(n_groups)]
    for edge_coord in sorted(edge_candidates):
        own_group = group_of.get(edge_coord)
        for obj in grid.objects_in_cell(edge_coord):
            state = states[obj.oid]
            if state.core_until >= window:
                continue
            touched = set()
            for core_state in state.attached_cores_in(window):
                group_id = group_of.get(core_state.cell)
                if group_id is not None and group_id != own_group:
                    touched.add(group_id)
            for group_id in touched:
                group_edge_members[group_id][state.oid] = state
                cells = group_edge_cells[group_id]
                cells[edge_coord] = cells.get(edge_coord, 0) + 1

    side = grid.side
    clusters = []
    summaries = []
    for group_id, cores in enumerate(group_cores):
        core_objects = []
        edge_objects = []
        core_set = set(cores)
        for coord in cores:
            for obj in grid.objects_in_cell(coord):
                if states[obj.oid].core_until >= window:
                    core_objects.append(obj)
                else:
                    edge_objects.append(obj)
        for state in group_edge_members[group_id].values():
            edge_objects.append(state.obj)
        clusters.append(Cluster(group_id, core_objects, edge_objects, window))

        cells = []
        attached_cells = group_edge_cells[group_id]
        for coord in cores:
            connections = set(
                neighbor for neighbor in adjacency[coord] if neighbor in core_set
            )
            for edge_coord in attached_cells:
                until = csgs._edge_attachments.get((edge_coord, coord), -1)
                if until >= window:
                    connections.add(edge_coord)
            cells.append(
                SkeletalGridCell(
                    coord,
                    side,
                    grid.cell_population(coord),
                    CellStatus.CORE,
                    frozenset(connections),
                )
            )
        for edge_coord, member_count in attached_cells.items():
            cells.append(
                SkeletalGridCell(
                    edge_coord, side, member_count, CellStatus.EDGE, frozenset()
                )
            )
        summaries.append(
            SGS.from_cells(
                cells, side, level=0, cluster_id=group_id, window_index=window
            )
        )
    return WindowOutput(window, clusters, summaries)


def reference_sgs_from_bytes(blob) -> SGS:
    """The field-by-field decoder, one cell object per cell. It reads
    past nothing and checks nothing at the end: trailing bytes pass and
    a cut inside a cell head is a raw ``struct.error``."""
    if blob[:4] != b"SGS1":
        raise ValueError("not an SGS binary blob")
    offset = 4
    dims, side, level, cluster_id, window_index, n_cells = struct.unpack_from(
        "<BdiiiI", blob, offset
    )
    offset += struct.calcsize("<BdiiiI")
    connection = struct.Struct(f"<{dims}b")
    cells = []
    for _ in range(n_cells):
        location = struct.unpack_from(f"<{dims}i", blob, offset)
        offset += 4 * dims
        is_core, population, n_conn = struct.unpack_from("<BIB", blob, offset)
        offset += struct.calcsize("<BIB")
        end = offset + n_conn * dims
        if end > len(blob):
            raise struct.error("truncated connection block")
        connections = frozenset(
            tuple(map(add, location, delta))
            for delta in connection.iter_unpack(blob[offset:end])
        )
        offset = end
        cells.append(
            SkeletalGridCell(
                location,
                side,
                population,
                CellStatus.CORE if is_core else CellStatus.EDGE,
                connections,
            )
        )
    return SGS.from_cells(
        cells, side, level=level, cluster_id=cluster_id, window_index=window_index
    )


def reference_mbr(sgs) -> MBR:
    lows = None
    highs = None
    for cell in sgs.cells.values():
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


def reference_features(sgs) -> ClusterFeatures:
    cells = list(sgs.cells.values())
    cores = [cell for cell in cells if cell.is_core]
    return ClusterFeatures(
        volume=float(len(cells)),
        core_count=float(sum(1 for cell in cells if cell.is_core)),
        avg_density=sum(cell.density() for cell in cells) / len(cells),
        avg_connectivity=(
            sum(len(cell.connections) for cell in cores) / len(cores)
            if cores
            else 0.0
        ),
    )


def reference_cell_table(sgs) -> dict:
    """The kernel table derived cell by cell, a bit per in-box offset."""
    dims = sgs.dimensions
    box = itertools.product(range(-2, 3), repeat=dims) if dims <= 5 else ()
    bits = {offset: 1 << bit for bit, offset in enumerate(box)}
    table = {}
    for location, cell in sgs.cells.items():
        offsets = _connection_offsets(cell)
        mask = sum({bits[o] for o in offsets if o in bits})
        extras = frozenset(o for o in offsets if o not in bits)
        table[location] = (cell.is_core, float(cell.population), mask, extras)
    return table


def reference_coarsen_sgs(sgs, factor=3) -> SGS:
    populations = {}
    statuses = {}
    connections = {}
    fine = sgs.cells
    parents = {coord: tuple(c // factor for c in coord) for coord in fine}
    for cell in fine.values():
        parent = parents[cell.location]
        populations[parent] = populations.get(parent, 0) + cell.population
        if cell.is_core:
            statuses[parent] = CellStatus.CORE
        else:
            statuses.setdefault(parent, CellStatus.EDGE)
    for cell in fine.values():
        parent = parents[cell.location]
        for other in cell.connections:
            other_parent = parents.get(other)
            if other_parent is None or other_parent == parent:
                continue
            connections.setdefault(parent, set()).add(other_parent)
            connections.setdefault(other_parent, set()).add(parent)
    side = sgs.side_length * factor
    cells = []
    for coord, population in populations.items():
        status = statuses[coord]
        conn = set()
        if status is CellStatus.CORE:
            conn = connections.get(coord, set())
        cells.append(
            SkeletalGridCell(coord, side, population, status, frozenset(conn))
        )
    return SGS.from_cells(
        cells,
        side,
        level=sgs.level + 1,
        cluster_id=sgs.cluster_id,
        window_index=sgs.window_index,
    )


@contextlib.contextmanager
def cell_constructions():
    """Count ``SkeletalGridCell`` constructions inside the block: yields
    a one-item list holding the count so far."""
    built = [0]
    real = SkeletalGridCell.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        real(self, *args, **kwargs)

    SkeletalGridCell.__init__ = counting
    try:
        yield built
    finally:
        SkeletalGridCell.__init__ = real


# ----------------------------------------------------------------------
# Static oracles and test tools the program itself never calls
# ----------------------------------------------------------------------


def classify_objects(
    objects: Sequence[StreamObject],
    theta_range: float,
    theta_count: int,
) -> Dict[int, str]:
    """Return {oid: 'core' | 'edge' | 'noise'} for a static object set."""
    objects = list(objects)
    if not objects:
        return {}
    index = GridIndex(theta_range, objects[0].dimensions)
    index.bulk_load(objects)
    result: Dict[int, str] = {}
    neighbor_lists = {
        obj.oid: index.range_query(obj.coords, exclude_oid=obj.oid)
        for obj in objects
    }
    core = {
        oid for oid, nbs in neighbor_lists.items() if len(nbs) >= theta_count
    }
    for obj in objects:
        if obj.oid in core:
            result[obj.oid] = "core"
        elif any(nb.oid in core for nb in neighbor_lists[obj.oid]):
            result[obj.oid] = "edge"
        else:
            result[obj.oid] = "noise"
    return result


def covers_point(sgs: SGS, point: Sequence[float]) -> bool:
    """True when ``point`` falls into one of the skeletal grid cells."""
    coord = tuple(int(math.floor(value / sgs.side_length)) for value in point)
    return coord in sgs.rows


def roundtrip_bytes(base) -> bytes:
    """The canonical bytes of an archive — the layout of the binary
    dump format SQLite files replaced — for equality checks: two bases
    hold the same archive exactly when their bytes are equal.

    ``"SGSA" | u32 3 | u32 count``, then per pattern in id order
    ``u32 id | u32 full_size | u8 0 | u32 blob length | SGS blob``,
    then ``u8 0`` without an inverted index, or ``u8 1 | u8 level count
    | levels | u8 factor | u8 dimensions`` and, per pattern and level,
    ``u32 cell count`` plus the sorted cells as int32 coordinates.
    ``base`` needs only the read surface: a sharded base works too.
    """
    patterns = sorted(base.all_patterns(), key=lambda p: p.pattern_id)
    out = [b"SGSA", struct.pack("<II", 3, len(patterns))]
    for pattern in patterns:
        blob = sgs_to_bytes(pattern.sgs)
        out.append(
            struct.pack(
                "<IIBI", pattern.pattern_id, pattern.full_size, 0, len(blob)
            )
        )
        out.append(blob)
    index = base.inverted_index()
    if index is None:
        out.append(b"\x00")
        return b"".join(out)
    dims = patterns[0].sgs.dimensions if patterns else 0
    out.append(struct.pack("<BB", 1, len(index.levels)))
    out.append(struct.pack(f"<{len(index.levels)}B", *index.levels))
    out.append(struct.pack("<BB", index.factor, dims))
    for pattern in patterns:
        for level in index.levels:
            cells = sorted(index.signature(pattern.pattern_id, level).cells)
            out.append(struct.pack("<I", len(cells)))
            for cell in cells:
                out.append(struct.pack(f"<{dims}i", *cell))
    return b"".join(out)


def reloaded(base):
    """``base`` dumped to a SQLite file and loaded back into memory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "archive.db")
        dump_pattern_base(base, path)
        return load_pattern_base(path)


class MinPopulationPolicy(ArchivePolicy):
    """Admits only clusters of at least ``min_population`` members: a
    stand-in selection policy for tests of the archiver's policy seam."""

    def __init__(self, min_population: int):
        self.min_population = min_population

    def admit(self, sgs: SGS, full_size: int) -> bool:
        return full_size >= self.min_population
