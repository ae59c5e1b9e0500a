"""Unit tests for minimum bounding rectangles."""

import pytest

from repro.geometry.mbr import MBR


def test_from_points_tightness():
    box = MBR.from_points([(0.0, 5.0), (2.0, 1.0), (-1.0, 3.0)])
    assert box.lows == (-1.0, 1.0)
    assert box.highs == (2.0, 5.0)


def test_from_point_is_degenerate():
    box = MBR.from_points([(1.0, 2.0)])
    assert box.volume() == 0.0
    assert box.lows == box.highs == (1.0, 2.0)


def test_invalid_bounds_raise():
    with pytest.raises(ValueError):
        MBR((1.0,), (0.0,))
    with pytest.raises(ValueError):
        MBR((), ())
    with pytest.raises(ValueError):
        MBR((0.0,), (1.0, 2.0))


def test_from_points_empty_raises():
    with pytest.raises(ValueError):
        MBR.from_points([])


def test_volume_and_margin():
    box = MBR((0.0, 0.0), (2.0, 3.0))
    assert box.volume() == pytest.approx(6.0)


def test_union_covers_both():
    a = MBR((0.0, 0.0), (1.0, 1.0))
    b = MBR((2.0, -1.0), (3.0, 0.5))
    u = a.union(b)
    assert u.contains(a)
    assert u.contains(b)
    assert u.lows == (0.0, -1.0)
    assert u.highs == (3.0, 1.0)


def test_intersects_boundary_contact():
    a = MBR((0.0, 0.0), (1.0, 1.0))
    b = MBR((1.0, 1.0), (2.0, 2.0))
    assert a.intersects(b)
    c = MBR((1.01, 1.01), (2.0, 2.0))
    assert not a.intersects(c)


def test_intersects_symmetry():
    a = MBR((0.0, 0.0), (4.0, 4.0))
    b = MBR((1.0, 1.0), (2.0, 2.0))
    assert a.intersects(b) and b.intersects(a)


def test_contains_point_edges_inclusive():
    box = MBR((0.0, 0.0), (1.0, 1.0))
    assert box.contains(MBR.from_points([(0.0, 1.0)]))
    assert not box.contains(MBR.from_points([(1.1, 0.5)]))


def test_enlargement_zero_for_contained():
    a = MBR((0.0, 0.0), (4.0, 4.0))
    b = MBR((1.0, 1.0), (2.0, 2.0))
    assert a.enlargement(b) == pytest.approx(0.0)
    assert b.enlargement(a) == pytest.approx(16.0 - 1.0)


def test_equality_and_hash():
    a = MBR((0.0, 0.0), (1.0, 1.0))
    b = MBR((0.0, 0.0), (1.0, 1.0))
    assert a == b
    assert hash(a) == hash(b)
    assert a != MBR((0.0, 0.0), (1.0, 2.0))
