"""Unit tests for the SGS container and its fidelity lemmas."""

import pytest

from tests.helpers import covers_point
from repro.core.cells import CellStatus, SkeletalGridCell
from repro.core.sgs import SGS


def _core(loc, pop=5, conn=()):
    return SkeletalGridCell(loc, 0.5, pop, CellStatus.CORE, frozenset(conn))


def _edge(loc, pop=2):
    return SkeletalGridCell(loc, 0.5, pop, CellStatus.EDGE)


def _sample_sgs():
    # Two connected core cells with an attached edge cell.
    cells = [
        _core((0, 0), pop=6, conn={(1, 0), (1, 1)}),
        _core((1, 0), pop=4, conn={(0, 0)}),
        _edge((1, 1), pop=2),
    ]
    return SGS.from_cells(cells, 0.5, level=0, cluster_id=3, window_index=9)


def test_basic_features():
    sgs = _sample_sgs()
    assert sgs.volume == 3
    assert sgs.core_count == 2
    assert sgs.population == 12
    assert sgs.dimensions == 2
    assert len(sgs) == 3


def test_average_density():
    sgs = _sample_sgs()
    cell_volume = 0.25
    expected = (6 / cell_volume + 4 / cell_volume + 2 / cell_volume) / 3
    assert sgs.average_density() == pytest.approx(expected)


def test_average_connectivity_counts_core_cells_only():
    sgs = _sample_sgs()
    assert sgs.average_connectivity() == pytest.approx((2 + 1) / 2)


def test_mbr_covers_cells():
    sgs = _sample_sgs()
    box = sgs.mbr()
    assert box.lows == (0.0, 0.0)
    assert box.highs == (1.0, 1.0)


def test_covers_point():
    sgs = _sample_sgs()
    assert covers_point(sgs, (0.1, 0.1))
    assert covers_point(sgs, (0.6, 0.6))
    assert not covers_point(sgs, (3.0, 3.0))


def test_core_graph_and_path():
    sgs = _sample_sgs()
    graph = sgs.core_graph()
    assert set(graph) == {(0, 0), (1, 0)}
    assert graph[(0, 0)] == [(1, 0)]


def test_core_path_none_when_disconnected():
    cells = [_core((0, 0)), _core((5, 5))]
    sgs = SGS.from_cells(cells, 0.5)
    assert not sgs.is_connected()


def test_is_connected_true_for_sample():
    assert _sample_sgs().is_connected()


def test_is_connected_false_for_orphan_edge():
    cells = [_core((0, 0), conn=set()), _edge((5, 5))]
    sgs = SGS.from_cells(cells, 0.5)
    assert not sgs.is_connected()


def test_duplicate_locations_rejected():
    with pytest.raises(ValueError):
        SGS.from_cells([_core((0, 0)), _core((0, 0))], 0.5)


def test_mixed_side_lengths_rejected():
    good = _core((0, 0))
    bad = SkeletalGridCell((1, 0), 0.7, 1, CellStatus.CORE)
    with pytest.raises(ValueError):
        SGS.from_cells([good, bad], 0.5)


def test_empty_sgs_rejected():
    with pytest.raises(ValueError):
        SGS.from_cells([], 0.5)
