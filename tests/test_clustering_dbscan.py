"""Unit tests for the static DBSCAN oracle."""

import random

from tests.helpers import classify_objects, clustered_points, make_objects
from repro.clustering.cluster import partition_signature
from repro.clustering.dbscan import dbscan
from repro.geometry.distance import euclidean_distance


def test_two_well_separated_blobs(two_blob_points):
    objects = make_objects(two_blob_points)
    clusters = dbscan(objects, theta_range=0.5, theta_count=5)
    assert len(clusters) == 2
    sizes = sorted(cluster.size for cluster in clusters)
    assert min(sizes) > 30


def test_empty_input():
    assert dbscan([], 0.5, 3) == []


def test_all_noise_when_sparse():
    objects = make_objects([(float(i) * 10, 0.0) for i in range(20)])
    assert dbscan(objects, theta_range=0.5, theta_count=3) == []


def test_single_dense_cell():
    objects = make_objects([(0.0, 0.0)] * 6)
    clusters = dbscan(objects, 0.5, 5)
    assert len(clusters) == 1
    assert clusters[0].size == 6


def test_chain_connectivity():
    # A chain of points 0.4 apart with theta_count=2: all core, one cluster.
    objects = make_objects([(0.4 * i, 0.0) for i in range(10)])
    clusters = dbscan(objects, theta_range=0.5, theta_count=2)
    assert len(clusters) == 1
    assert clusters[0].size == 10


def test_theta_count_boundary():
    # 4 mutually-neighboring points: with theta_count=3 each has exactly 3
    # neighbors -> core; with theta_count=4 nobody is core.
    square = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (0.1, 0.1)]
    objects = make_objects(square)
    assert len(dbscan(objects, 0.5, 3)) == 1
    assert dbscan(objects, 0.5, 4) == []


def test_edge_object_attached_to_both_clusters():
    # Two dense cores far apart, one bridge point neighboring exactly one
    # core object of each: the bridge is edge in both clusters. All the
    # decisive coordinates are binary-exact so boundary distances are too.
    left = [(0.0, 0.0), (0.25, 0.0), (0.0, 0.25), (0.25, 0.25)]
    right = [(3.0, 0.0), (3.25, 0.0), (3.0, 0.25), (3.25, 0.25)]
    bridge = [(1.625, 0.0)]
    objects = make_objects(left + right + bridge)
    clusters = dbscan(objects, theta_range=1.375, theta_count=3)
    assert len(clusters) == 2
    bridge_oid = 8
    for cluster in clusters:
        assert bridge_oid in cluster.member_oids()
        assert bridge_oid not in cluster.core_oids()


def test_classification_consistency():
    points = clustered_points([(2.0, 2.0)], per_cluster=50, noise=30, seed=5)
    objects = make_objects(points)
    labels = classify_objects(objects, 0.4, 5)
    clusters = dbscan(objects, 0.4, 5)
    clustered_oids = set()
    core_oids = set()
    for cluster in clusters:
        clustered_oids |= cluster.member_oids()
        core_oids |= cluster.core_oids()
    for oid, label in labels.items():
        if label == "core":
            assert oid in core_oids
        elif label == "edge":
            assert oid in clustered_oids and oid not in core_oids
        else:
            assert oid not in clustered_oids


def test_core_definition_exact():
    rng = random.Random(9)
    points = [(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(150)]
    objects = make_objects(points)
    theta_range, theta_count = 0.45, 4
    labels = classify_objects(objects, theta_range, theta_count)
    for obj in objects:
        neighbor_count = sum(
            1
            for other in objects
            if other.oid != obj.oid
            and euclidean_distance(obj.coords, other.coords) <= theta_range
        )
        if neighbor_count >= theta_count:
            assert labels[obj.oid] == "core"
        else:
            assert labels[obj.oid] != "core"


def test_result_is_order_independent():
    points = clustered_points(
        [(1.0, 1.0), (4.0, 4.0)], per_cluster=40, noise=20, seed=2
    )
    objects_a = make_objects(points)
    shuffled = list(points)
    random.Random(3).shuffle(shuffled)
    objects_b = make_objects(shuffled)
    sig_a = partition_signature(dbscan(objects_a, 0.4, 4))
    # Map oids of b back to coords to compare geometric membership.
    coords_of_b = {obj.oid: obj.coords for obj in objects_b}
    sig_b_geo = {
        frozenset(coords_of_b[oid] for oid in group)
        for group in partition_signature(dbscan(objects_b, 0.4, 4))
    }
    coords_of_a = {obj.oid: obj.coords for obj in objects_a}
    sig_a_geo = {
        frozenset(coords_of_a[oid] for oid in group) for group in sig_a
    }
    assert sig_a_geo == sig_b_geo


def test_invalid_theta_count():
    import pytest

    with pytest.raises(ValueError):
        dbscan(make_objects([(0.0, 0.0)]), 0.5, 0)
