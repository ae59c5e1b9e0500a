"""Unit tests for the naive per-window re-clustering baseline."""

from tests.helpers import clustered_points, stream_batches
from repro.clustering.cluster import partition_signature
from repro.clustering.extra_n import ExtraN
from repro.clustering.naive import NaiveWindowClusterer


def test_matches_extra_n():
    points = clustered_points(
        [(2.0, 2.0), (6.0, 4.0)], per_cluster=200, noise=100, seed=1
    )
    naive = NaiveWindowClusterer(0.35, 5)
    extra_n = ExtraN(0.35, 5, 2)
    for batch in stream_batches(points, 250, 50):
        sig_naive = partition_signature(naive.process_batch(batch))
        sig_extra = partition_signature(extra_n.process_batch(batch))
        assert sig_naive == sig_extra


def test_buffer_respects_window():
    points = clustered_points([(2.0, 2.0)], per_cluster=300, seed=2)
    naive = NaiveWindowClusterer(0.35, 5)
    for batch in stream_batches(points, 100, 50):
        naive.process_batch(batch)
        assert len(naive._buffer) <= 100


def test_empty_batch():
    from repro.streams.windows import WindowBatch

    naive = NaiveWindowClusterer(0.3, 3)
    assert naive.process_batch(WindowBatch(index=0)) == []
