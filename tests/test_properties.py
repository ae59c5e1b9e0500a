"""Property-based tests (hypothesis) on core data structures and the
paper's invariants (Lemmas 4.1-4.5, window semantics, index correctness,
metric axioms, cross-algorithm equivalence)."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.helpers import (
    classify_objects,
    covers_point,
    make_objects,
    stream_batches,
)
from repro.clustering.cluster import partition_signature
from repro.clustering.dbscan import dbscan
from repro.core.cells import CellStatus
from repro.core.csgs import CSGS
from repro.core.multires import coarsen_sgs
from repro.geometry.distance import euclidean_distance
from repro.geometry.mbr import MBR
from repro.index.grid_index import GridIndex
from repro.index.rtree import RTree
from repro.matching.cell_match import cell_level_distance
from repro.matching.metric import DistanceMetricSpec, relative_difference

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

finite = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
point2d = st.tuples(finite, finite)
points2d = st.lists(point2d, min_size=1, max_size=120)


def boxes():
    return st.builds(
        lambda c, w, h: MBR(
            (c[0], c[1]), (c[0] + abs(w), c[1] + abs(h))
        ),
        point2d,
        st.floats(min_value=0, max_value=10, allow_nan=False),
        st.floats(min_value=0, max_value=10, allow_nan=False),
    )


# ---------------------------------------------------------------------------
# MBR axioms
# ---------------------------------------------------------------------------


@given(boxes(), boxes())
def test_mbr_union_commutative_and_covering(a, b):
    u = a.union(b)
    assert u == b.union(a)
    assert u.contains(a) and u.contains(b)
    assert u.volume() >= max(a.volume(), b.volume())


@given(boxes(), boxes())
def test_mbr_intersection_symmetric(a, b):
    assert a.intersects(b) == b.intersects(a)


@given(points2d)
def test_mbr_from_points_contains_all(points):
    box = MBR.from_points(points)
    for point in points:
        assert box.contains(MBR.from_points([point]))


# ---------------------------------------------------------------------------
# Grid index == brute force
# ---------------------------------------------------------------------------


@given(points2d, st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_grid_range_query_equals_bruteforce(points, theta):
    objects = make_objects(points)
    index = GridIndex(theta, 2)
    index.bulk_load(objects)
    probe = objects[0]
    expected = {
        o.oid
        for o in objects
        if o.oid != probe.oid
        and euclidean_distance(o.coords, probe.coords) <= theta
    }
    got = {o.oid for o in index.range_query(probe.coords, exclude_oid=probe.oid)}
    assert got == expected


# ---------------------------------------------------------------------------
# R-tree == brute force
# ---------------------------------------------------------------------------


@given(st.lists(boxes(), min_size=1, max_size=80), boxes())
@settings(max_examples=40, deadline=None)
def test_rtree_search_equals_bruteforce(entry_boxes, probe):
    tree = RTree(max_entries=4)
    for i, box in enumerate(entry_boxes):
        tree.insert(box, i)
    expected = {i for i, box in enumerate(entry_boxes) if box.intersects(probe)}
    assert set(tree.search(probe)) == expected


# ---------------------------------------------------------------------------
# Metric axioms
# ---------------------------------------------------------------------------


@given(
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
)
def test_relative_difference_axioms(a, b):
    d = relative_difference(a, b)
    assert 0.0 <= d <= 1.0
    assert d == relative_difference(b, a)
    assert relative_difference(a, a) == 0.0


# ---------------------------------------------------------------------------
# Cross-algorithm equivalence + SGS lemmas on random streams
# ---------------------------------------------------------------------------

stream_points = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=4, allow_nan=False),
        st.floats(min_value=0, max_value=4, allow_nan=False),
    ),
    min_size=30,
    max_size=200,
)


@given(stream_points, st.integers(min_value=2, max_value=6))
@settings(max_examples=25, deadline=None)
def test_csgs_equals_dbscan_on_random_streams(points, theta_count):
    theta_range = 0.5
    csgs = CSGS(theta_range, theta_count, 2)
    buffer = []
    for batch in stream_batches(points, 40, 20):
        output = csgs.process_batch(batch)
        buffer = [o for o in buffer if o.last_window >= batch.index]
        buffer.extend(batch.new_objects)
        oracle = dbscan(buffer, theta_range, theta_count, batch.index)
        assert partition_signature(output.clusters) == partition_signature(
            oracle
        )


@given(stream_points)
@settings(max_examples=25, deadline=None)
@example(
    # Two clusters sharing edge object (2.5, 1.5): its cell is a core
    # cell of one cluster and an edge cell of the other simultaneously.
    [(0.0, 0.0)] * 23
    + [
        (2.0, 1.0),
        (2.0, 1.0),
        (3.0, 2.0),
        (3.0, 2.0),
        (2.5, 1.5),
        (2.25, 1.25),
        (2.75, 1.75),
    ]
)
def test_sgs_lemmas_hold_on_random_streams(points):
    theta_range, theta_count = 0.5, 3
    csgs = CSGS(theta_range, theta_count, 2)
    buffer = []
    for batch in stream_batches(points, 40, 20):
        output = csgs.process_batch(batch)
        buffer = [o for o in buffer if o.last_window >= batch.index]
        buffer.extend(batch.new_objects)
        labels = classify_objects(buffer, theta_range, theta_count)
        grid = csgs.tracker.provider
        for cluster, sgs in zip(output.clusters, output.summaries):
            # Lemma 4.3: every member is inside the covered space, and any
            # covered point is within theta_range of a member (bound).
            for obj in cluster.members:
                assert covers_point(sgs, obj.coords)
            diagonal = sgs.side_length * math.sqrt(sgs.dimensions)
            assert diagonal <= theta_range + 1e-9
            # Lemma 4.4: populations are exact member counts.
            assert sgs.population == cluster.size
            # Lemma 4.1/4.2 via statuses. Per Definition 4.2 statuses
            # are per cluster: a core cell of cluster P can be an edge
            # cell of cluster Q at the same time, so only this
            # cluster's own members determine this SGS's statuses.
            member_ids = {o.oid for o in cluster.members}
            for cell in sgs.cells.values():
                cell_objects = grid.objects_in_cell(cell.location)
                statuses = {
                    labels[o.oid]
                    for o in cell_objects
                    if o.oid in member_ids
                }
                if cell.status is CellStatus.CORE:
                    assert "core" in statuses
                else:
                    assert "core" not in statuses
            # Lemma 4.5 consequence: the summary is connected.
            assert sgs.is_connected()


@given(stream_points, st.integers(min_value=2, max_value=4))
@settings(max_examples=20, deadline=None)
def test_multires_invariants_on_random_streams(points, factor):
    csgs = CSGS(0.5, 3, 2)
    for batch in stream_batches(points, 40, 20):
        output = csgs.process_batch(batch)
        for sgs in output.summaries:
            coarse = coarsen_sgs(sgs, factor)
            assert coarse.population == sgs.population
            assert len(coarse) <= len(sgs)
            assert coarse.core_count <= sgs.core_count or coarse.core_count
            assert coarse.mbr().contains(sgs.mbr())


# ---------------------------------------------------------------------------
# Cell-level distance axioms on extracted summaries
# ---------------------------------------------------------------------------


@given(stream_points)
@settings(max_examples=20, deadline=None)
def test_cell_distance_axioms(points):
    csgs = CSGS(0.5, 3, 2)
    summaries = []
    for batch in stream_batches(points, 40, 20):
        summaries.extend(csgs.process_batch(batch).summaries)
    spec = DistanceMetricSpec()
    for sgs in summaries[:5]:
        assert cell_level_distance(sgs, sgs, spec) == 0.0
    for a in summaries[:3]:
        for b in summaries[:3]:
            d_ab = cell_level_distance(a, b, spec)
            assert 0.0 <= d_ab <= 1.0
            # Symmetric up to floating-point summation order.
            assert abs(d_ab - cell_level_distance(b, a, spec)) < 1e-9


# ---------------------------------------------------------------------------
# Window stamping invariants
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=150),
)
@settings(max_examples=40, deadline=None)
def test_window_stamping_invariants(ratio, slide, n):
    win = ratio * slide
    points = [(float(i % 7), 0.0) for i in range(n)]
    total_new = 0
    previous_index = None
    for batch in stream_batches(points, win, slide):
        if previous_index is not None:
            assert batch.index == previous_index + 1
        previous_index = batch.index
        total_new += len(batch.new_objects)
        for obj in batch.new_objects:
            assert obj.first_window == batch.index
            assert obj.last_window - obj.first_window + 1 == ratio
    assert total_new == n
