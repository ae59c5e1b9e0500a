"""Unit tests for the synthetic data generators (GMTI, STT, blobs)."""

import pytest

from repro.clustering.dbscan import dbscan
from repro.data.gmti import GMTIStream
from repro.data.stt import STTStream
from repro.data.synthetic import DriftingBlobStream
from repro.streams.objects import StreamObject


def _stamp(objects, last_window=10):
    out = []
    for obj in objects:
        obj.first_window = 0
        obj.last_window = last_window
        out.append(obj)
    return out


# ---------------------------------------------------------------------------
# Generic synthetic
# ---------------------------------------------------------------------------


def test_drifting_blob_stream_reproducible():
    a = list(DriftingBlobStream(seed=5).points(100))
    b = list(DriftingBlobStream(seed=5).points(100))
    assert a == b
    c = list(DriftingBlobStream(seed=6).points(100))
    assert a != c


def test_drifting_blob_objects_have_sequential_oids():
    objects = list(DriftingBlobStream(seed=1).objects(50, start_oid=10))
    assert [o.oid for o in objects] == list(range(10, 60))


def test_drifting_blobs_form_clusters():
    stream = DriftingBlobStream(
        n_blobs=2, noise_fraction=0.1, std=0.2, drift=0.0, seed=2
    )
    objects = _stamp(list(stream.objects(600)))
    clusters = dbscan(objects, 0.3, 5)
    assert len(clusters) >= 1
    assert max(c.size for c in clusters) > 100


def test_drifting_blob_validation():
    with pytest.raises(ValueError):
        DriftingBlobStream(noise_fraction=2.0)


# ---------------------------------------------------------------------------
# GMTI
# ---------------------------------------------------------------------------


def test_gmti_dimensions_and_region():
    stream = GMTIStream(seed=1, region=50.0, noise_fraction=0.0)
    points = list(stream.points(500))
    assert all(len(p) == 2 for p in points)
    # Group members scatter around centers inside the region; allow the
    # Gaussian tails a small margin.
    assert all(-15 < x < 65 and -15 < y < 65 for x, y in points)


def test_gmti_reproducible():
    assert list(GMTIStream(seed=3).points(200)) == list(
        GMTIStream(seed=3).points(200)
    )


def test_gmti_forms_moving_clusters():
    stream = GMTIStream(
        n_groups=3, noise_fraction=0.1, group_spread=1.0, seed=4
    )
    objects = _stamp(list(stream.objects(800)))
    clusters = dbscan(objects, 2.5, 8)
    assert clusters, "convoys must appear as density-based clusters"


def test_gmti_payload_speed_range():
    stream = GMTIStream(seed=5)
    for obj in stream.objects(200):
        assert 0.0 <= obj.payload <= 200.0


def test_gmti_centers_actually_move():
    stream = GMTIStream(n_groups=1, noise_fraction=0.0, seed=6)
    first = list(stream.points(50))
    later = list(stream.points(5000))[-50:]
    from statistics import mean

    first_center = (mean(p[0] for p in first), mean(p[1] for p in first))
    later_center = (mean(p[0] for p in later), mean(p[1] for p in later))
    moved = (
        (first_center[0] - later_center[0]) ** 2
        + (first_center[1] - later_center[1]) ** 2
    ) ** 0.5
    assert moved > 1.0


def test_gmti_validation():
    with pytest.raises(ValueError):
        GMTIStream(noise_fraction=1.5)
    with pytest.raises(ValueError):
        GMTIStream(alpha=1.0)


# ---------------------------------------------------------------------------
# STT
# ---------------------------------------------------------------------------


def test_stt_schema():
    stream = STTStream(total_records=10_000, seed=1)
    points = list(stream.points(500))
    assert all(len(p) == 4 for p in points)
    for t, price, volume, time_value in points:
        assert t in (0.0, 1.0)
        assert 0.0 <= price <= 1.0
        assert 0.0 <= volume <= 1.0
        assert 0.0 <= time_value <= 1.0


def test_stt_time_advances():
    stream = STTStream(total_records=1000, seed=2)
    times = [p[3] for p in stream.points(1000)]
    assert times == sorted(times)


def test_stt_reproducible():
    a = list(STTStream(total_records=5000, seed=3).points(1000))
    b = list(STTStream(total_records=5000, seed=3).points(1000))
    assert a == b


def test_stt_bursts_form_clusters():
    stream = STTStream(
        total_records=100_000, burst_fraction=0.8, seed=4
    )
    objects = _stamp(list(stream.objects(4000)))
    clusters = dbscan(objects, 0.05, 10)
    assert clusters, "intensive transaction areas must cluster"


def test_stt_objects_oids():
    stream = STTStream(total_records=100, seed=5)
    objects = list(stream.objects(100))
    assert isinstance(objects[0], StreamObject)
    assert [o.oid for o in objects] == list(range(100))


def test_stt_validation():
    with pytest.raises(ValueError):
        STTStream(burst_fraction=1.2)
