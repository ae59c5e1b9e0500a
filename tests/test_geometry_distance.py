"""Unit tests for distance functions."""

import math

import pytest

from repro.geometry.distance import (
    euclidean_distance,
    squared_euclidean_distance,
)


def test_euclidean_simple():
    assert euclidean_distance((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)


def test_squared_matches_euclidean():
    a, b = (1.0, 2.0, 3.0), (4.0, 6.0, 3.0)
    assert squared_euclidean_distance(a, b) == pytest.approx(
        euclidean_distance(a, b) ** 2
    )


def test_zero_distance_to_self():
    p = (1.5, -2.5, 0.0)
    assert euclidean_distance(p, p) == 0.0


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        euclidean_distance((0.0,), (0.0, 0.0))


def test_symmetry():
    a, b = (1.0, 7.0), (-2.0, 3.5)
    assert euclidean_distance(a, b) == pytest.approx(euclidean_distance(b, a))


def test_triangle_inequality():
    a, b, c = (0.0, 0.0), (1.0, 1.0), (2.0, 0.0)
    assert euclidean_distance(a, c) <= euclidean_distance(
        a, b
    ) + euclidean_distance(b, c) + 1e-12


def test_one_dimensional():
    assert euclidean_distance((3.0,), (-1.0,)) == pytest.approx(4.0)


def test_high_dimensional():
    a = tuple(0.0 for _ in range(10))
    b = tuple(1.0 for _ in range(10))
    assert euclidean_distance(a, b) == pytest.approx(math.sqrt(10))
