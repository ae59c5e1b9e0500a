"""Unit tests for the non-locational feature grid index."""

import random

import pytest

from repro.index.feature_grid import FeatureGridIndex


def test_insert_and_range_query():
    index = FeatureGridIndex((1.0, 1.0))
    index.insert((0.5, 0.5), "a")
    index.insert((5.0, 5.0), "b")
    assert index.range_query((0.0, 0.0), (1.0, 1.0)) == ["a"]
    assert set(index.range_query((0.0, 0.0), (10.0, 10.0))) == {"a", "b"}
    assert index.range_query((2.0, 2.0), (3.0, 3.0)) == []


def test_range_is_inclusive():
    index = FeatureGridIndex((1.0,))
    index.insert((2.0,), "x")
    assert index.range_query((2.0,), (2.0,)) == ["x"]


def test_matches_bruteforce_4d():
    rng = random.Random(0)
    index = FeatureGridIndex((10.0, 5.0, 1.0, 0.5))
    entries = []
    for i in range(500):
        features = (
            rng.uniform(0, 200),
            rng.uniform(0, 100),
            rng.uniform(0, 20),
            rng.uniform(0, 8),
        )
        entries.append((features, i))
        index.insert(features, i)
    for _ in range(40):
        lows = tuple(rng.uniform(0, 100) for _ in range(4))
        highs = tuple(low + rng.uniform(0, 100) for low in lows)
        expected = {
            value
            for features, value in entries
            if all(l <= f <= h for f, l, h in zip(features, lows, highs))
        }
        assert set(index.range_query(lows, highs)) == expected


def test_unbounded_dimension_with_infinity():
    index = FeatureGridIndex((1.0, 1.0))
    index.insert((0.5, 100.0), "far")
    index.insert((0.5, 1.0), "near")
    got = index.range_query((0.0, 0.0), (1.0, float("inf")))
    assert set(got) == {"far", "near"}


def test_empty_index_range_query():
    index = FeatureGridIndex((1.0,))
    assert index.range_query((0.0,), (10.0,)) == []


def test_remove_entry():
    index = FeatureGridIndex((1.0,))
    value = object()
    index.insert((3.0,), value)
    assert len(index) == 1
    assert index.remove((3.0,), value)
    assert len(index) == 0
    assert not index.remove((3.0,), value)


def test_remove_requires_identity():
    index = FeatureGridIndex((1.0,))
    index.insert((3.0,), "a")
    assert not index.remove((3.0,), "different")
    assert len(index) == 1


def test_dimension_validation():
    index = FeatureGridIndex((1.0, 1.0))
    with pytest.raises(ValueError):
        index.insert((1.0,), "x")
    with pytest.raises(ValueError):
        index.range_query((0.0,), (1.0,))
    with pytest.raises(ValueError):
        FeatureGridIndex(())
    with pytest.raises(ValueError):
        FeatureGridIndex((0.0,))


# ----------------------------------------------------------------------
# Unbounded / degenerate range handling (no bin-enumeration blowup)
# ----------------------------------------------------------------------


def test_unbounded_high_with_outlier_probes_only_occupied_bins():
    """An inf high used to clamp to the occupied extent computed by a
    full key rescan; with a far outlier the clamped box is still huge,
    and the enumeration must take the occupied-cell scan, not walk a
    million empty bins."""
    index = FeatureGridIndex((1.0, 1.0))
    for i in range(20):
        index.insert((float(i), 1.0), f"v{i}")
    index.insert((1e6, 1.0), "outlier")
    before = index.stats["bin_probes"]
    got = index.range_query((0.0, 0.0), (float("inf"), float("inf")))
    assert len(got) == 21
    probes = index.stats["bin_probes"] - before
    assert probes <= len(index._cells), (
        f"unbounded query probed {probes} bins for "
        f"{len(index._cells)} occupied cells"
    )


def test_degenerate_infinite_bounds_short_circuit():
    """+inf lows and -inf highs match nothing and must not probe any
    bin (a +inf low used to clamp like an *unbounded* side and
    enumerate the whole occupied box just to screen everything out)."""
    index = FeatureGridIndex((1.0, 1.0))
    for i in range(50):
        index.insert((float(i % 7), float(i % 11)), i)
    before = index.stats["bin_probes"]
    assert index.range_query((float("inf"), 0.0), (float("inf"), 5.0)) == []
    assert index.range_query((0.0, 0.0), (5.0, float("-inf"))) == []
    assert index.range_query((4.0, 0.0), (1.0, 5.0)) == []  # inverted
    assert index.stats["bin_probes"] == before


def test_minus_inf_low_is_unbounded_below():
    index = FeatureGridIndex((1.0,))
    index.insert((2.0,), "a")
    index.insert((9.0,), "b")
    assert set(index.range_query((float("-inf"),), (10.0,))) == {"a", "b"}


def test_nan_bounds_rejected():
    index = FeatureGridIndex((1.0,))
    index.insert((1.0,), "a")
    with pytest.raises(ValueError):
        index.range_query((float("nan"),), (2.0,))
    with pytest.raises(ValueError):
        index.range_query((0.0,), (float("nan"),))


def test_key_extents_track_inserts_and_removals():
    index = FeatureGridIndex((1.0, 1.0))
    assert index.key_extents() is None
    index.insert((0.5, 0.5), "a")
    index.insert((5.5, 3.5), "b")
    assert index.key_extents() == ((0, 0), (5, 3))
    assert index.remove((5.5, 3.5), "b")
    assert index.key_extents() == ((0, 0), (0, 0))
    assert index.remove((0.5, 0.5), "a")
    assert index.key_extents() is None


def test_covers_occupied_extent():
    index = FeatureGridIndex((1.0, 1.0))
    index.insert((1.5, 2.5), "a")
    index.insert((4.5, 6.5), "b")
    assert index.covers_occupied_extent((0.0, 0.0), (10.0, 10.0))
    assert index.covers_occupied_extent(
        (float("-inf"), 0.0), (float("inf"), 10.0)
    )
    assert not index.covers_occupied_extent((2.0, 0.0), (10.0, 10.0))
    assert not index.covers_occupied_extent((0.0, 0.0), (4.0, 10.0))


def test_unbounded_query_correct_after_boundary_removal():
    """Extent caching must not serve stale bounds after the boundary
    entry is removed (the lazy-recompute path)."""
    index = FeatureGridIndex((1.0,))
    index.insert((1.0,), "a")
    index.insert((100.0,), "edge")
    assert set(index.range_query((0.0,), (float("inf"),))) == {"a", "edge"}
    assert index.remove((100.0,), "edge")
    index.insert((5.0,), "b")
    assert set(index.range_query((0.0,), (float("inf"),))) == {"a", "b"}
