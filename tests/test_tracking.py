"""Unit tests for cluster evolution tracking and the evolution-driven
archiver."""

import pytest

from repro.archive.pattern_base import PatternBase
from repro.core.cells import CellStatus, SkeletalGridCell
from repro.core.csgs import WindowOutput
from repro.core.sgs import SGS
from repro.tracking.archiver import EvolutionDrivenArchiver
from repro.tracking.tracker import ClusterTracker, TrackEvent


def _sgs(locations, window, cluster_id=0, population=5):
    cells = [
        SkeletalGridCell(loc, 0.5, population, CellStatus.CORE)
        for loc in locations
    ]
    return SGS.from_cells(
        cells, 0.5, cluster_id=cluster_id, window_index=window
    )


def _output(window, *summaries):
    from repro.clustering.cluster import Cluster

    clusters = [
        Cluster(i, [], [], window) for i, _ in enumerate(summaries)
    ]
    return WindowOutput(window, clusters, list(summaries))


BLOB_A = [(0, 0), (1, 0), (0, 1), (1, 1)]
BLOB_B = [(10, 10), (11, 10), (10, 11)]


def test_emerge_then_survive():
    tracker = ClusterTracker()
    first = tracker.observe(_output(0, _sgs(BLOB_A, 0)))
    assert [r.event for r in first] == [TrackEvent.EMERGED]
    track = first[0].track_id
    second = tracker.observe(
        _output(1, _sgs(BLOB_A + [(2, 0)], 1))
    )
    assert second[0].event is TrackEvent.SURVIVED
    assert second[0].track_id == track
    assert [r.event for r in tracker.history[track]] == [
        TrackEvent.EMERGED,
        TrackEvent.SURVIVED,
    ]


def test_two_independent_tracks():
    tracker = ClusterTracker()
    records = tracker.observe(
        _output(0, _sgs(BLOB_A, 0, 0), _sgs(BLOB_B, 0, 1))
    )
    assert len({r.track_id for r in records}) == 2
    later = tracker.observe(
        _output(1, _sgs(BLOB_A, 1, 0), _sgs(BLOB_B, 1, 1))
    )
    assert all(r.event is TrackEvent.SURVIVED for r in later)


def test_disappearance():
    tracker = ClusterTracker()
    first = tracker.observe(_output(0, _sgs(BLOB_A, 0)))
    track = first[0].track_id
    second = tracker.observe(_output(1))
    assert len(second) == 1
    assert second[0].event is TrackEvent.DISAPPEARED
    assert second[0].track_id == track
    assert second[0].sgs is None
    # No live track is left to disappear again.
    assert tracker.observe(_output(2)) == []


def test_merge_detected():
    tracker = ClusterTracker()
    tracker.observe(_output(0, _sgs(BLOB_A, 0, 0), _sgs(BLOB_B, 0, 1)))
    merged = tracker.observe(_output(1, _sgs(BLOB_A + BLOB_B, 1, 0)))
    events = [r.event for r in merged if r.sgs is not None]
    assert events == [TrackEvent.MERGED]
    assert len(merged[0].parent_tracks) == 2


def test_split_detected():
    tracker = ClusterTracker()
    first = tracker.observe(_output(0, _sgs(BLOB_A + BLOB_B, 0)))
    parent = first[0].track_id
    split = tracker.observe(
        _output(1, _sgs(BLOB_A, 1, 0), _sgs(BLOB_B, 1, 1))
    )
    live = [r for r in split if r.sgs is not None]
    assert all(r.event is TrackEvent.SPLIT for r in live)
    # Exactly one child inherits the parent's id.
    inherited = [r for r in live if r.track_id == parent]
    assert len(inherited) == 1
    fresh = [r for r in live if r.track_id != parent]
    assert all(parent in r.parent_tracks for r in fresh)


def test_emerge_when_overlap_below_threshold():
    tracker = ClusterTracker(overlap_threshold=0.9)
    tracker.observe(_output(0, _sgs(BLOB_A, 0)))
    moved = tracker.observe(_output(1, _sgs([(5, 5), (6, 5)], 1)))
    live = [r for r in moved if r.sgs is not None]
    assert live[0].event is TrackEvent.EMERGED


def test_threshold_validation():
    with pytest.raises(ValueError):
        ClusterTracker(overlap_threshold=0.0)


# ---------------------------------------------------------------------------
# Evolution-driven archiver
# ---------------------------------------------------------------------------


def test_evolution_archiver_skips_stable_clusters():
    base = PatternBase()
    archiver = EvolutionDrivenArchiver(
        base, drift_threshold=0.3, max_gap=100
    )
    # Same stable cluster observed over many windows.
    for window in range(12):
        archiver.archive_output(_output(window, _sgs(BLOB_A, window)))
    # Archived once (the EMERGED snapshot), then suppressed.
    assert len(base) == 1
    assert archiver.savings() > 0.9


def test_evolution_archiver_records_events():
    base = PatternBase()
    archiver = EvolutionDrivenArchiver(base, drift_threshold=0.3)
    archiver.archive_output(
        _output(0, _sgs(BLOB_A, 0, 0), _sgs(BLOB_B, 0, 1))
    )
    assert len(base) == 2  # two EMERGED
    archiver.archive_output(_output(1, _sgs(BLOB_A + BLOB_B, 1, 0)))
    assert len(base) == 3  # the MERGED snapshot


def test_evolution_archiver_records_drift():
    base = PatternBase()
    archiver = EvolutionDrivenArchiver(
        base, drift_threshold=0.2, max_gap=100
    )
    archiver.archive_output(_output(0, _sgs(BLOB_A, 0)))
    # Drift gradually: one extra cell per window keeps overlap above the
    # tracking threshold but accumulates cell-level distance.
    shape = list(BLOB_A)
    for window in range(1, 8):
        shape = shape + [(1 + window, 0), (1 + window, 1)]
        archiver.archive_output(_output(window, _sgs(shape, window)))
    assert 1 < len(base) < 8  # re-archived on drift, but not every window


def test_evolution_archiver_max_gap():
    base = PatternBase()
    archiver = EvolutionDrivenArchiver(
        base, drift_threshold=1.0, max_gap=3
    )
    for window in range(10):
        archiver.archive_output(_output(window, _sgs(BLOB_A, window)))
    # Snapshot at window 0 and then every 3 windows.
    assert len(base) == 4


def test_evolution_archiver_validation():
    with pytest.raises(ValueError):
        EvolutionDrivenArchiver(PatternBase(), drift_threshold=2.0)
    with pytest.raises(ValueError):
        EvolutionDrivenArchiver(PatternBase(), max_gap=0)
