"""Unit tests for shared multi-query C-SGS execution."""

import pytest

from tests.helpers import clustered_points, stream_batches
from repro.clustering.cluster import partition_signature
from repro.clustering.shared import SharedCSGS
from repro.core.csgs import CSGS


def _points(seed=1):
    return clustered_points(
        [(2.0, 2.0), (6.0, 4.0)], per_cluster=250, noise=150, seed=seed
    )


def test_shared_equals_independent_runs():
    theta_counts = (3, 5, 8)
    points = _points()
    shared = SharedCSGS(0.35, theta_counts, 2)
    independents = {c: CSGS(0.35, c, 2) for c in theta_counts}
    for batch in stream_batches(points, 300, 100):
        shared_outputs = shared.process_batch(batch)
        for count, csgs in independents.items():
            expected = csgs.process_batch(batch)
            got = shared_outputs[count]
            assert partition_signature(got.clusters) == partition_signature(
                expected.clusters
            ), f"theta_count={count} window={batch.index}"
            # Summaries match cell-for-cell too.
            expected_cells = {
                frozenset(s.cells) for s in expected.summaries
            }
            got_cells = {frozenset(s.cells) for s in got.summaries}
            assert got_cells == expected_cells


def test_one_range_query_per_object_total():
    points = _points(seed=2)[:600]
    shared = SharedCSGS(0.35, (3, 5, 8), 2)
    for batch in stream_batches(points, 200, 100):
        shared.process_batch(batch)
    assert shared.range_queries_run == len(points)


def test_shared_grid_is_single_instance():
    shared = SharedCSGS(0.35, (3, 5), 2)
    grids = {id(member.tracker.provider) for member in shared.members.values()}
    assert grids == {id(shared.provider)}


def test_validation():
    with pytest.raises(ValueError):
        SharedCSGS(0.35, (), 2)
    with pytest.raises(ValueError):
        SharedCSGS(0.35, (3, 3), 2)


def test_shared_tracker_requires_injected_neighbors():
    from repro.core.lifespan import NeighborhoodTracker
    from repro.index.grid_index import GridIndex
    from repro.streams.objects import StreamObject

    grid = GridIndex(0.5, 2)
    tracker = NeighborhoodTracker(0.5, 3, 2, provider=grid, manage_grid=False)
    obj = StreamObject(0, (0.0, 0.0))
    obj.first_window = 0
    obj.last_window = 5
    with pytest.raises(ValueError):
        tracker.insert(obj)


def test_expiration_shared():
    from repro.streams.windows import WindowBatch
    from repro.streams.objects import StreamObject

    shared = SharedCSGS(0.5, (2, 4), 2)
    batch = WindowBatch(index=0)
    for i in range(8):
        obj = StreamObject(i, (0.05 * i, 0.0))
        obj.first_window = 0
        obj.last_window = 1
        batch.new_objects.append(obj)
    outputs = shared.process_batch(batch)
    assert outputs[2].clusters and outputs[4].clusters
    empty = shared.process_batch(WindowBatch(index=2))
    assert all(not out.clusters for out in empty.values())
    assert len(shared.provider) == 0
