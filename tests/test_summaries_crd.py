"""Unit tests for the CRD summarizer."""

import math

import pytest

from tests.helpers import make_objects
from repro.clustering.cluster import Cluster
from repro.geometry.distance import euclidean_distance
from repro.summaries.crd import CRDSummarizer, _sphere_volume


def _cluster(points):
    objects = make_objects(points)
    return Cluster(0, objects, [])


def test_centroid_and_radius():
    cluster = _cluster([(0.0, 0.0), (2.0, 0.0), (1.0, 1.0), (1.0, -1.0)])
    crd = CRDSummarizer().summarize(cluster)
    assert crd.centroid == pytest.approx((1.0, 0.0))
    assert crd.radius == pytest.approx(1.0)
    assert crd.population == 4


def test_radius_covers_all_members():
    points = [(0.1 * i, 0.05 * i * i) for i in range(20)]
    cluster = _cluster(points)
    crd = CRDSummarizer().summarize(cluster)
    for point in points:
        assert euclidean_distance(point, crd.centroid) <= crd.radius + 1e-9


def test_density_uses_sphere_volume():
    cluster = _cluster([(0.0, 0.0), (2.0, 0.0)])
    crd = CRDSummarizer().summarize(cluster)
    assert crd.density == pytest.approx(2 / (math.pi * 1.0**2))


def test_sphere_volume_known_values():
    assert _sphere_volume(1.0, 2) == pytest.approx(math.pi)
    assert _sphere_volume(1.0, 3) == pytest.approx(4.0 / 3.0 * math.pi)
    assert _sphere_volume(0.0, 2) == 0.0


def test_degenerate_single_point():
    cluster = _cluster([(1.0, 1.0)])
    crd = CRDSummarizer().summarize(cluster)
    assert crd.radius == 0.0
    assert crd.density == pytest.approx(1.0)


def test_empty_cluster_rejected():
    with pytest.raises(ValueError):
        CRDSummarizer().summarize(Cluster(0, [], []))
