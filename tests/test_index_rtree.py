"""Unit tests for the R-tree (locational feature index substrate)."""

import random

import pytest

from repro.geometry.mbr import MBR
from repro.index.rtree import RTree


def _random_box(rng, span=100.0, max_side=5.0):
    lows = (rng.uniform(0, span), rng.uniform(0, span))
    highs = (
        lows[0] + rng.uniform(0, max_side),
        lows[1] + rng.uniform(0, max_side),
    )
    return MBR(lows, highs)


def test_insert_and_search_small():
    tree = RTree()
    a = MBR((0.0, 0.0), (1.0, 1.0))
    b = MBR((5.0, 5.0), (6.0, 6.0))
    tree.insert(a, "a")
    tree.insert(b, "b")
    assert set(tree.search(MBR((0.5, 0.5), (5.5, 5.5)))) == {"a", "b"}
    assert tree.search(MBR((10.0, 10.0), (11.0, 11.0))) == []
    assert len(tree) == 2


def test_search_matches_bruteforce_after_many_inserts():
    rng = random.Random(0)
    tree = RTree(max_entries=6)
    boxes = [_random_box(rng) for _ in range(400)]
    for i, box in enumerate(boxes):
        tree.insert(box, i)
    assert len(tree) == 400
    for _ in range(50):
        probe = _random_box(rng, max_side=20.0)
        expected = {i for i, box in enumerate(boxes) if box.intersects(probe)}
        assert set(tree.search(probe)) == expected


def test_search_point():
    tree = RTree()
    tree.insert(MBR((0.0, 0.0), (2.0, 2.0)), "x")
    assert tree.search(MBR.from_points([(1.0, 1.0)])) == ["x"]
    assert tree.search(MBR.from_points([(3.0, 3.0)])) == []


def test_delete_existing_entry():
    rng = random.Random(2)
    tree = RTree(max_entries=5)
    boxes = [_random_box(rng) for _ in range(200)]
    values = [object() for _ in range(200)]
    for box, value in zip(boxes, values):
        tree.insert(box, value)
    # Delete half, verify searches stay consistent with brute force.
    for i in range(0, 200, 2):
        assert tree.delete(boxes[i], values[i])
    assert len(tree) == 100
    for _ in range(30):
        probe = _random_box(rng, max_side=15.0)
        expected = {
            id(values[i])
            for i in range(1, 200, 2)
            if boxes[i].intersects(probe)
        }
        assert {id(v) for v in tree.search(probe)} == expected


def test_delete_missing_returns_false():
    tree = RTree()
    box = MBR((0.0, 0.0), (1.0, 1.0))
    tree.insert(box, "a")
    assert not tree.delete(box, "b")
    assert not tree.delete(MBR((9.0, 9.0), (10.0, 10.0)), "a")
    assert len(tree) == 1


def test_delete_everything_leaves_empty_tree():
    rng = random.Random(3)
    tree = RTree(max_entries=4)
    entries = [(_random_box(rng), i) for i in range(60)]
    for box, value in entries:
        tree.insert(box, value)
    for box, value in entries:
        assert tree.delete(box, value)
    assert len(tree) == 0
    assert tree.search(MBR((0.0, 0.0), (100.0, 100.0))) == []


def test_duplicate_boxes_supported():
    tree = RTree()
    box = MBR((0.0, 0.0), (1.0, 1.0))
    for i in range(20):
        tree.insert(box, i)
    assert sorted(tree.search(box)) == list(range(20))


def test_max_entries_validation():
    with pytest.raises(ValueError):
        RTree(max_entries=2)
    with pytest.raises(ValueError):
        RTree(max_entries=8, min_entries=7)
