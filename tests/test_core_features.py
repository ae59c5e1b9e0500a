"""Unit tests for cluster feature vectors."""

import pytest

from repro.core.cells import CellStatus, SkeletalGridCell
from repro.core.features import FEATURE_NAMES, ClusterFeatures
from repro.core.sgs import SGS


def _sgs():
    cells = [
        SkeletalGridCell((0, 0), 0.5, 8, CellStatus.CORE, frozenset({(1, 0)})),
        SkeletalGridCell((1, 0), 0.5, 4, CellStatus.CORE, frozenset({(0, 0)})),
        SkeletalGridCell((2, 0), 0.5, 2, CellStatus.EDGE),
    ]
    return SGS.from_cells(cells, 0.5)


def test_from_sgs():
    features = ClusterFeatures.from_sgs(_sgs())
    assert features.volume == 3.0
    assert features.core_count == 2.0
    assert features.avg_connectivity == pytest.approx(1.0)
    cell_volume = 0.25
    assert features.avg_density == pytest.approx(
        (8 / cell_volume + 4 / cell_volume + 2 / cell_volume) / 3
    )


def test_as_tuple_order_matches_names():
    features = ClusterFeatures.from_sgs(_sgs())
    values = features.as_tuple()
    for name, value in zip(FEATURE_NAMES, values):
        assert features[name] == value


def test_getitem_unknown_key():
    features = ClusterFeatures.from_sgs(_sgs())
    with pytest.raises(KeyError):
        features["bogus"]


def test_frozen():
    features = ClusterFeatures.from_sgs(_sgs())
    with pytest.raises(Exception):
        features.volume = 10.0  # type: ignore[misc]
