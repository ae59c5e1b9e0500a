"""Unit tests for the static k-d tree."""

import random

import pytest

from tests.helpers import make_objects
from repro.geometry.distance import euclidean_distance
from repro.index.kdtree import KDTree


def _random_objects(n, dims=2, seed=0, span=5.0):
    rng = random.Random(seed)
    points = [
        tuple(rng.uniform(0, span) for _ in range(dims)) for _ in range(n)
    ]
    return make_objects(points)


def test_range_query_matches_bruteforce_2d():
    objects = _random_objects(400, seed=1)
    tree = KDTree(objects, 2)
    rng = random.Random(2)
    for _ in range(40):
        probe = (rng.uniform(0, 5), rng.uniform(0, 5))
        radius = rng.uniform(0.1, 1.5)
        expected = {
            o.oid
            for o in objects
            if euclidean_distance(o.coords, probe) <= radius
        }
        got = {o.oid for o in tree.range_query(probe, radius)}
        assert got == expected


def test_range_query_matches_bruteforce_4d():
    objects = _random_objects(250, dims=4, seed=3, span=1.0)
    tree = KDTree(objects, 4)
    rng = random.Random(4)
    for _ in range(25):
        probe = tuple(rng.uniform(0, 1) for _ in range(4))
        radius = rng.uniform(0.05, 0.4)
        expected = {
            o.oid
            for o in objects
            if euclidean_distance(o.coords, probe) <= radius
        }
        got = {o.oid for o in tree.range_query(probe, radius)}
        assert got == expected


def test_exclude_oid():
    objects = make_objects([(0.0, 0.0), (0.1, 0.0)])
    tree = KDTree(objects, 2)
    got = tree.range_query((0.0, 0.0), 1.0, exclude_oid=0)
    assert [o.oid for o in got] == [1]


def test_boundary_inclusive():
    objects = make_objects([(0.0, 0.0), (3.0, 4.0)])
    tree = KDTree(objects, 2)
    assert len(tree.range_query((0.0, 0.0), 5.0)) == 2
    assert len(tree.range_query((0.0, 0.0), 4.999)) == 1


def test_empty_tree():
    tree = KDTree([], 2)
    assert len(tree) == 0
    assert tree.range_query((0.0, 0.0), 1.0) == []


def test_duplicates():
    objects = make_objects([(1.0, 1.0)] * 10)
    tree = KDTree(objects, 2)
    assert len(tree.range_query((1.0, 1.0), 0.0)) == 10


def test_validation():
    with pytest.raises(ValueError):
        KDTree([], 0)
    tree = KDTree(make_objects([(0.0, 0.0)]), 2)
    with pytest.raises(ValueError):
        tree.range_query((0.0,), 1.0)
    with pytest.raises(ValueError):
        tree.range_query((0.0, 0.0), -1.0)
