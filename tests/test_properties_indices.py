"""Property-based cross-validation of the range-query indices, the
grid's gap-budget walk, and the per-tuple incremental clusterer."""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import (
    grid_offset_table,
    make_objects,
    reference_reachable_buckets,
    stamped,
)
from repro.clustering.cluster import partition_signature
from repro.clustering.dbscan import dbscan
from repro.clustering.inc_dbscan import IncrementalDBSCAN
from repro.core.cells import CellStatus, SkeletalGridCell
from repro.geometry.distance import euclidean_distance
from repro.index.grid_index import GridIndex
from repro.index.kdtree import KDTree

_coords = st.floats(min_value=-20, max_value=20, allow_nan=False)
_points = st.lists(st.tuples(_coords, _coords), min_size=1, max_size=100)
_radius = st.floats(min_value=0.05, max_value=8.0, allow_nan=False)


@given(_points, _radius)
@settings(max_examples=40, deadline=None)
def test_kdtree_and_grid_agree_with_bruteforce(points, radius):
    objects = make_objects(points)
    grid = GridIndex(radius, 2)
    grid.bulk_load(objects)
    tree = KDTree(objects, 2)
    probe = objects[0]
    brute = {
        o.oid
        for o in objects
        if o.oid != probe.oid
        and euclidean_distance(o.coords, probe.coords) <= radius
    }
    from_grid = {
        o.oid for o in grid.range_query(probe.coords, exclude_oid=probe.oid)
    }
    from_tree = {
        o.oid
        for o in tree.range_query(probe.coords, radius, exclude_oid=probe.oid)
    }
    assert from_grid == brute
    assert from_tree == brute


# ----------------------------------------------------------------------
# The gap-budget walk: exactly the cells whose minimum distance to the
# base cell is <= theta_range — no false drops, no readmissions
# ----------------------------------------------------------------------


def _oracle_gap_sq(offset, side):
    """Independent box-to-box minimum gap: built from the *absolute*
    cell bounds of two SkeletalGridCells (clamp formulation), not from
    the integer budget the walk carries."""
    dims = len(offset)
    base = SkeletalGridCell((0,) * dims, side, 0, CellStatus.CORE)
    other = SkeletalGridCell(offset, side, 0, CellStatus.CORE)
    total = 0.0
    for axis in range(dims):
        gap = max(
            0.0,
            other.lows()[axis] - base.highs()[axis],
            base.lows()[axis] - other.highs()[axis],
        )
        total += gap * gap
    return total


def _occupy(grid, cells):
    """One object at the centre of each cell; returns the grid."""
    for oid, cell in enumerate(cells):
        grid.insert(
            stamped(oid, [(c + 0.5) * grid.side for c in cell], 0, 9)
        )
    return grid


@given(
    dims=st.integers(min_value=1, max_value=8),
    ratio=st.floats(
        min_value=0.05, max_value=2.5, allow_nan=False, allow_infinity=False
    ),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_walk_keeps_exactly_the_cells_within_range(dims, ratio, data):
    """From the base cell the walk returns exactly the occupied cells
    whose min cell-to-cell distance is <= θr (θr = ratio, side = θr/√d):
    every cell at gap <= θr is walked (no false drops — the
    correctness-critical direction), and nothing beyond the fp gray band
    around the boundary is readmitted. Offsets one step past ``reach``
    are drawn too: those cells are never walked, since a half-open cell
    that far lies more than ``reach * side >= θr`` from the base cell
    (the closed-box gap can equal θr exactly when d is a square)."""
    grid = GridIndex(ratio, dims)
    span = st.integers(min_value=-grid.reach - 1, max_value=grid.reach + 1)
    offsets = data.draw(
        st.lists(st.tuples(*[span] * dims), max_size=40, unique=True)
    )
    _occupy(grid, [(0,) * dims] + offsets)
    walked = [offset for offset, _ in grid._reachable_buckets((0,) * dims)]
    assert walked == sorted(set(walked))
    sq_range = ratio * ratio
    for offset in offsets:
        gap_sq = _oracle_gap_sq(offset, grid.side)
        if max(map(abs, offset)) > grid.reach:
            assert offset not in walked, f"walked past reach: {offset}"
        elif gap_sq <= sq_range:
            assert offset in walked, f"false drop: {offset} at gap² {gap_sq}"
        elif gap_sq > sq_range * (1.0 + 1e-6):
            assert offset not in walked, (
                f"readmitted cell: {offset} at gap² {gap_sq}"
            )
    # Point symmetry: from any walked cell the walk reaches back.
    for offset in walked:
        back = [o for o, _ in grid._reachable_buckets(offset)]
        assert tuple(-delta for delta in offset) in back


@given(
    dims=st.integers(min_value=1, max_value=8),
    theta=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_walk_covers_every_neighbor_pair(dims, theta, data):
    """Semantic no-false-drop witness under the paper's diagonal cell
    sizing: any two points within θr of each other land in cells the
    walk from either one reaches."""
    grid = GridIndex(theta, dims)
    coord_strategy = st.floats(
        min_value=-10.0, max_value=10.0, allow_nan=False
    )
    a = tuple(data.draw(coord_strategy) for _ in range(dims))
    # Perturb within the θr-ball (scaled per-dimension so the total
    # displacement stays <= θr).
    scale = theta / math.sqrt(dims)
    b = tuple(
        value + data.draw(
            st.floats(min_value=-scale, max_value=scale, allow_nan=False)
        )
        for value in a
    )
    if euclidean_distance(a, b) > theta:
        return  # outside the ball: no claim
    exact_sq = sum(
        (Fraction(q) - Fraction(p)) ** 2 for p, q in zip(a, b)
    )
    if exact_sq > Fraction(theta) ** 2:
        # Float rounding collapsed an exactly-greater-than-θr distance
        # onto the boundary (e.g. a denormal just below a cell edge
        # against a point one cell past reach): under exact arithmetic
        # the pair is *not* within θr, so the coverage claim does not
        # apply — offset reach+1 implies exact distance > θr strictly.
        return
    grid.insert(stamped(0, a, 0, 9))
    grid.insert(stamped(1, b, 0, 9))
    for src, dst in ((a, b), (b, a)):
        base = grid.cell_coord(src)
        delta = tuple(q - p for p, q in zip(base, grid.cell_coord(dst)))
        walked = [offset for offset, _ in grid._reachable_buckets(base)]
        assert delta in walked, (
            f"neighbor pair {src} / {dst} spans offset {delta} "
            "the walk does not reach"
        )


def test_walk_counts_on_a_full_cube_equal_the_offset_table():
    """With every cell of the ``(2*reach + 1)^d`` cube occupied the
    walk returns the whole pruned table, whatever the absolute θr: all
    625 cells through 4-D, 6095 of 16807 in 5-D."""
    for theta, dims, count in ((0.2, 4, 625), (1.7, 4, 625), (0.3, 5, 6095)):
        grid = GridIndex(theta, dims)
        span = range(-grid.reach, grid.reach + 1)
        _occupy(grid, itertools.product(span, repeat=dims))
        base = (0,) * dims
        walked = grid._reachable_buckets(base)
        assert len(walked) == len(grid_offset_table(grid)) == count
        assert walked == reference_reachable_buckets(grid, base)
    assert count < 7 ** 5


@st.composite
def _op_sequences(draw):
    """Random interleavings of insertions and deletions."""
    n_ops = draw(st.integers(min_value=1, max_value=60))
    ops = []
    alive = 0
    for _ in range(n_ops):
        if alive > 0 and draw(st.booleans()) and draw(st.booleans()):
            victim = draw(st.integers(min_value=0, max_value=alive - 1))
            ops.append(("delete", victim))
            alive -= 1
        else:
            point = draw(
                st.tuples(
                    st.floats(min_value=0, max_value=3, allow_nan=False),
                    st.floats(min_value=0, max_value=3, allow_nan=False),
                )
            )
            ops.append(("insert", point))
            alive += 1
    return ops


@given(_op_sequences(), st.integers(min_value=2, max_value=5))
@settings(max_examples=30, deadline=None)
def test_incremental_dbscan_matches_static_under_any_op_sequence(
    ops, theta_count
):
    theta_range = 0.5
    inc = IncrementalDBSCAN(theta_range, theta_count, 2)
    alive = []
    next_oid = 0
    for op, arg in ops:
        if op == "insert":
            obj = make_objects([arg])[0]
            obj.oid = next_oid
            next_oid += 1
            inc.insert(obj)
            alive.append(obj)
        else:
            victim = alive.pop(arg)
            inc.delete(victim)
    expected = partition_signature(dbscan(alive, theta_range, theta_count))
    assert partition_signature(inc.clusters()) == expected
