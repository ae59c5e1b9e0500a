"""Unit tests for the Extra-N baseline."""

from hypothesis import given, settings

from tests.helpers import (
    ReferenceExtraN,
    career_state,
    career_streams,
    clustered_points,
    record_extensions,
    stamped,
    stream_batches,
)
from repro.clustering.cluster import partition_signature
from repro.clustering.dbscan import dbscan
from repro.clustering.extra_n import ExtraN, _UnionFind
from repro.streams.windows import WindowBatch


def test_union_find_basics():
    uf = _UnionFind()
    uf.make(1)
    uf.make(2)
    assert uf.find(1) != uf.find(2)
    uf.union(1, 2)
    assert uf.find(1) == uf.find(2)
    uf.union(2, 3)
    assert uf.find(1) == uf.find(3)
    assert len(uf) == 3


def test_union_find_idempotent():
    uf = _UnionFind()
    uf.union(1, 2)
    uf.union(1, 2)
    uf.union(2, 1)
    assert len(uf) == 2


def test_matches_dbscan_over_windows():
    points = clustered_points(
        [(2.0, 2.0), (5.0, 5.0)], per_cluster=250, noise=150, seed=1
    )
    extra_n = ExtraN(0.35, 5, 2)
    buffer = []
    for batch in stream_batches(points, 300, 100):
        clusters = extra_n.process_batch(batch)
        buffer = [o for o in buffer if o.last_window >= batch.index]
        buffer.extend(batch.new_objects)
        oracle = dbscan(buffer, 0.35, 5, batch.index)
        assert partition_signature(clusters) == partition_signature(oracle)


def test_views_pruned_after_window_passes():
    points = clustered_points([(2.0, 2.0)], per_cluster=200, seed=2)
    extra_n = ExtraN(0.35, 5, 2)
    for batch in stream_batches(points, 200, 50):
        extra_n.process_batch(batch)
        # Views for closed windows must be dropped; open views bounded by
        # win/slide.
        assert all(w >= batch.index for w in extra_n._views)
        assert len(extra_n._views) <= 4


def test_view_count_tracks_win_over_slide():
    points = clustered_points([(2.0, 2.0)], per_cluster=400, seed=3)
    small = ExtraN(0.35, 5, 2)
    large = ExtraN(0.35, 5, 2)
    for batch in stream_batches(points, 400, 200):
        small.process_batch(batch)
    for batch in stream_batches(points, 400, 50):
        large.process_batch(batch)
    assert large.state_sizes()["views"] > small.state_sizes()["views"]


def test_state_sizes_keys():
    extra_n = ExtraN(0.35, 5, 2)
    for batch in stream_batches(
        clustered_points([(1.0, 1.0)], per_cluster=60, seed=4), 60, 30
    ):
        extra_n.process_batch(batch)
    sizes = extra_n.state_sizes()
    assert set(sizes) == {
        "objects",
        "hist_entries",
        "noncore_entries",
        "views",
        "view_entries",
    }


def test_empty_stream():
    from repro.streams.windows import WindowBatch

    extra_n = ExtraN(0.3, 3, 2)
    assert extra_n.process_batch(WindowBatch(index=0)) == []


@settings(max_examples=40, deadline=None)
@given(stream=career_streams())
def test_fast_insertion_equals_reference_for_extra_n(stream):
    """Extra-N consumes the same tracker events as C-SGS: on the tracker
    that skips saturated neighbors its careers, non-core lists, extension
    events, predicted views and clusters equal the unconditional
    reference loop's after every insertion."""
    dims, theta_range, theta_count, ops = stream
    fast = ExtraN(theta_range, theta_count, dims)
    reference = ReferenceExtraN(theta_range, theta_count, dims)
    fast_events = record_extensions(fast.tracker)
    reference_events = record_extensions(reference.tracker)
    window = 0
    for oid, op in enumerate(ops):
        batch = WindowBatch(index=window)
        if op[0] == "advance":
            window += op[1]
            batch = WindowBatch(index=window)
        else:
            batch.new_objects.append(
                stamped(oid, op[1], window, window + op[2])
            )
        got = fast.process_batch(batch)
        want = reference.process_batch(batch)
        assert [
            (c.core_oids(), c.member_oids()) for c in got
        ] == [(c.core_oids(), c.member_oids()) for c in want]
        assert career_state(fast.tracker) == career_state(reference.tracker)
        assert fast_events == reference_events
        assert {
            index: dict(view.parent) for index, view in fast._views.items()
        } == {
            index: dict(view.parent) for index, view in reference._views.items()
        }
        sizes = fast.state_sizes()
        assert sizes["hist_entries"] <= reference.state_sizes()["hist_entries"]
