"""Edge-case tests that cut across small helpers."""

import pytest

from repro.core.cells import CellStatus, SkeletalGridCell
from repro.core.sgs import SGS
from repro.matching.alignment import anytime_alignment_search
from repro.matching.metric import DistanceMetricSpec


def test_single_cell_sgs_matching():
    a = SGS.from_cells([SkeletalGridCell((0, 0), 0.5, 5, CellStatus.CORE)], 0.5)
    b = SGS.from_cells([SkeletalGridCell((9, 9), 0.5, 5, CellStatus.CORE)], 0.5)
    spec = DistanceMetricSpec()
    result = anytime_alignment_search(a, b, spec)
    assert result.distance == pytest.approx(0.0)
    assert result.alignment == (9, 9)


def test_sgs_with_only_edge_cells_connectivity():
    # Degenerate summary (can arise from manual construction): a single
    # edge cell counts as trivially connected; two do not.
    single = SGS.from_cells([SkeletalGridCell((0, 0), 0.5, 2, CellStatus.EDGE)], 0.5)
    assert single.is_connected()
    double = SGS.from_cells(
        [
            SkeletalGridCell((0, 0), 0.5, 2, CellStatus.EDGE),
            SkeletalGridCell((1, 0), 0.5, 2, CellStatus.EDGE),
        ],
        0.5,
    )
    assert not double.is_connected()


def test_metric_spec_partial_weights():
    # Weights over a subset of features are fine if they sum to 1.
    spec = DistanceMetricSpec(weights={"volume": 0.5, "avg_density": 0.5})
    assert spec.weight("core_count") == 0.0
    assert spec.weight("volume") == 0.5


def test_cell_status_roundtrip_via_value():
    assert CellStatus("core") is CellStatus.CORE
    assert CellStatus("edge") is CellStatus.EDGE
    with pytest.raises(ValueError):
        CellStatus("noise")
