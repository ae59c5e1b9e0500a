"""Unit tests for the customizable distance metric (Section 7.2)."""

import pytest

from repro.core.cells import CellStatus, SkeletalGridCell
from repro.core.features import ClusterFeatures
from repro.core.sgs import SGS
from repro.geometry.mbr import MBR
from repro.matching.metric import (
    DistanceMetricSpec,
    cluster_feature_distance,
    feature_search_ranges,
    location_distance,
    relative_difference,
)


def _features(volume=20.0, core=10.0, density=4.0, connectivity=2.0):
    return ClusterFeatures(volume, core, density, connectivity)


def test_relative_difference_basics():
    assert relative_difference(10.0, 10.0) == 0.0
    assert relative_difference(10.0, 15.0) == pytest.approx(0.5)
    assert relative_difference(15.0, 10.0) == pytest.approx(0.5)
    assert relative_difference(1.0, 100.0) == 1.0  # capped
    assert relative_difference(0.0, 5.0) == 1.0  # zero denominator


def test_relative_difference_rejects_negative():
    with pytest.raises(ValueError):
        relative_difference(-1.0, 1.0)


def test_spec_weight_validation():
    with pytest.raises(ValueError):
        DistanceMetricSpec(weights={"volume": 0.5, "core_count": 0.2})
    with pytest.raises(ValueError):
        DistanceMetricSpec(weights={"bogus": 1.0})
    spec = DistanceMetricSpec()
    assert sum(spec.weights.values()) == pytest.approx(1.0)


def test_identical_features_zero_distance():
    spec = DistanceMetricSpec()
    assert cluster_feature_distance(_features(), _features(), spec) == 0.0


def test_distance_respects_weights():
    spec = DistanceMetricSpec(
        weights={"volume": 1.0, "core_count": 0.0, "avg_density": 0.0,
                 "avg_connectivity": 0.0}
    )
    a = _features(volume=10.0)
    b = _features(volume=15.0)
    assert cluster_feature_distance(a, b, spec) == pytest.approx(0.5)
    # Other features differ but carry no weight.
    c = _features(volume=10.0, density=100.0)
    assert cluster_feature_distance(a, c, spec) == 0.0


def test_position_sensitive_disjoint_is_max_distance():
    spec = DistanceMetricSpec(position_sensitive=True)
    a = MBR((0.0, 0.0), (1.0, 1.0))
    b = MBR((5.0, 5.0), (6.0, 6.0))
    assert cluster_feature_distance(_features(), _features(), spec, a, b) == 1.0
    assert location_distance(a, b) == 1.0


def test_position_sensitive_overlapping_compares_features():
    spec = DistanceMetricSpec(position_sensitive=True)
    a = MBR((0.0, 0.0), (2.0, 2.0))
    b = MBR((1.0, 1.0), (3.0, 3.0))
    distance = cluster_feature_distance(_features(), _features(), spec, a, b)
    assert distance == 0.0


def test_position_sensitive_requires_mbrs():
    spec = DistanceMetricSpec(position_sensitive=True)
    with pytest.raises(ValueError):
        cluster_feature_distance(_features(), _features(), spec)


def test_search_ranges_paper_example():
    # Section 7.2's derivation: volume 20, weight 0.2, threshold 0.1
    # -> bound t/w = 0.5 -> candidates in [20/1.5, 30].
    spec = DistanceMetricSpec(
        weights={"volume": 0.2, "core_count": 0.3, "avg_density": 0.3,
                 "avg_connectivity": 0.2}
    )
    lows, highs = feature_search_ranges(_features(volume=20.0), spec, 0.1)
    assert lows[0] == pytest.approx(20.0 / 1.5)
    assert highs[0] == pytest.approx(30.0)


def test_search_ranges_capped_bound_is_unconstrained():
    # When t/w reaches 1 the per-feature relative difference cap bites:
    # an out-of-range value contributes at most w <= t, so it cannot be
    # excluded on its own. The paper's uncapped example (volume 20,
    # weight 0.2, threshold 0.2 -> [10, 40]) would drop a pattern whose
    # volume is 50 but whose other three features are identical — total
    # distance exactly 0.2, a true match under <=-threshold semantics.
    spec = DistanceMetricSpec(
        weights={"volume": 0.2, "core_count": 0.3, "avg_density": 0.3,
                 "avg_connectivity": 0.2}
    )
    query = _features(volume=20.0)
    lows, highs = feature_search_ranges(query, spec, 0.2)
    assert lows[0] == 0.0
    assert highs[0] == float("inf")
    dropped_by_old_ranges = _features(volume=50.0)
    assert cluster_feature_distance(
        query, dropped_by_old_ranges, spec
    ) == pytest.approx(0.2)


def test_search_ranges_exclude_only_impossible_candidates():
    spec = DistanceMetricSpec()
    query = _features()
    lows, highs = feature_search_ranges(query, spec, 0.3)
    # A candidate just inside every bound has feature distance <= threshold
    # contribution per feature; one far outside any bound exceeds it.
    outside = _features(volume=highs[0] * 1.5)
    contribution = spec.weight("volume") * relative_difference(
        query.volume, outside.volume
    )
    assert contribution > 0.3 or relative_difference(
        query.volume, outside.volume
    ) == 1.0


def test_zero_weight_feature_unbounded():
    spec = DistanceMetricSpec(
        weights={"volume": 1.0, "core_count": 0.0, "avg_density": 0.0,
                 "avg_connectivity": 0.0}
    )
    lows, highs = feature_search_ranges(_features(), spec, 0.2)
    assert highs[1] == float("inf")
    assert lows[1] == 0.0


def test_distance_between_real_sgs():
    cells_a = [
        SkeletalGridCell((0, 0), 0.5, 10, CellStatus.CORE, frozenset({(1, 0)})),
        SkeletalGridCell((1, 0), 0.5, 8, CellStatus.CORE, frozenset({(0, 0)})),
    ]
    cells_b = [
        SkeletalGridCell((5, 5), 0.5, 10, CellStatus.CORE, frozenset({(6, 5)})),
        SkeletalGridCell((6, 5), 0.5, 8, CellStatus.CORE, frozenset({(5, 5)})),
    ]
    sgs_a = SGS.from_cells(cells_a, 0.5)
    sgs_b = SGS.from_cells(cells_b, 0.5)
    spec = DistanceMetricSpec()
    distance = cluster_feature_distance(
        ClusterFeatures.from_sgs(sgs_a),
        ClusterFeatures.from_sgs(sgs_b),
        spec,
    )
    # Identical structure at different positions: non-locational distance 0.
    assert distance == pytest.approx(0.0)
