"""Unit tests for the SkPS (skeletal point set) summarizer."""

import pytest

from tests.helpers import clustered_points, make_objects
from repro.clustering.dbscan import dbscan
from repro.geometry.distance import euclidean_distance
from repro.summaries.skps import SkPSSummarizer


def _extract_cluster(points, theta_range=0.4, theta_count=4):
    clusters = dbscan(make_objects(points), theta_range, theta_count)
    assert clusters, "test setup must produce a cluster"
    return max(clusters, key=lambda c: c.size)


def test_skeletal_points_are_core_members():
    points = clustered_points([(2.0, 2.0)], per_cluster=80, seed=1)
    cluster = _extract_cluster(points)
    skps = SkPSSummarizer(0.4).summarize(cluster)
    core_coords = {obj.coords for obj in cluster.core_objects}
    assert all(point in core_coords for point in skps.points)


def test_coverage_of_all_members():
    points = clustered_points([(2.0, 2.0)], per_cluster=80, seed=2)
    cluster = _extract_cluster(points)
    skps = SkPSSummarizer(0.4).summarize(cluster)
    for obj in cluster.members:
        assert any(
            euclidean_distance(obj.coords, point) <= 0.4 + 1e-9
            for point in skps.points
        ), f"member {obj.oid} not covered by any skeletal point"


def test_graph_is_connected():
    points = clustered_points([(2.0, 2.0)], per_cluster=100, seed=3, std=0.3)
    cluster = _extract_cluster(points)
    skps = SkPSSummarizer(0.4).summarize(cluster)
    if skps.size > 1:
        adjacency = {i: set() for i in range(skps.size)}
        for a, b in skps.edges:
            adjacency[a].add(b)
            adjacency[b].add(a)
        seen = {0}
        stack = [0]
        while stack:
            node = stack.pop()
            for nb in adjacency[node]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        assert seen == set(range(skps.size))


def test_compression_smaller_than_cluster():
    points = clustered_points([(2.0, 2.0)], per_cluster=150, seed=4, std=0.25)
    cluster = _extract_cluster(points)
    skps = SkPSSummarizer(0.4).summarize(cluster)
    assert skps.size < len(cluster.core_objects)
    assert skps.population == cluster.size


def test_edges_connect_actual_neighbors():
    points = clustered_points([(2.0, 2.0)], per_cluster=80, seed=5)
    cluster = _extract_cluster(points)
    skps = SkPSSummarizer(0.4).summarize(cluster)
    for a, b in skps.edges:
        assert euclidean_distance(skps.points[a], skps.points[b]) <= 0.4 + 1e-9


def test_validation():
    with pytest.raises(ValueError):
        SkPSSummarizer(0.0)
    from repro.clustering.cluster import Cluster

    with pytest.raises(ValueError):
        SkPSSummarizer(0.4).summarize(Cluster(0, [], []))
