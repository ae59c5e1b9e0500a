"""Edge-case tests that cut across small helpers."""

import pytest

from repro.core.cells import CellStatus, SkeletalGridCell
from repro.core.sgs import SGS
from repro.eval.harness import print_series
from repro.matching.alignment import anytime_alignment_search
from repro.matching.metric import DistanceMetricSpec


def test_print_series(capsys):
    print_series("demo", [1, 2, 3], [4.0, 5.0, 6.0], "n", "t")
    out = capsys.readouterr().out
    assert "demo" in out and "4.0" in out


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


def test_sgs_density_of_region_single_cell():
    sgs = SGS.from_cells([SkeletalGridCell((2, 2), 0.5, 8, CellStatus.CORE)], 0.5)
    assert sgs.density_of_region([(2, 2)]) == pytest.approx(8 / 0.25)
    with pytest.raises(KeyError):
        sgs.density_of_region([(0, 0)])
