"""Unit tests for skeletal grid cells."""

import pytest

from repro.core.cells import CellStatus, SkeletalGridCell


def _cell(**overrides):
    defaults = dict(
        location=(2, -1),
        side_length=0.5,
        population=7,
        status=CellStatus.CORE,
        connections=frozenset({(2, 0), (3, -1)}),
    )
    defaults.update(overrides)
    return SkeletalGridCell(**defaults)


def test_five_attributes_present():
    cell = _cell()
    assert cell.location == (2, -1)
    assert cell.side_length == 0.5
    assert cell.population == 7
    assert cell.status is CellStatus.CORE
    assert cell.connections == frozenset({(2, 0), (3, -1)})


def test_lows_highs_center():
    cell = _cell()
    assert cell.lows() == (1.0, -0.5)
    assert cell.highs() == (1.5, 0.0)
    assert cell.center() == (1.25, -0.25)


def test_density_is_population_over_volume():
    cell = _cell()
    assert cell.cell_volume() == pytest.approx(0.25)
    assert cell.density() == pytest.approx(7 / 0.25)


def test_is_core():
    assert _cell().is_core
    assert not _cell(status=CellStatus.EDGE, connections=frozenset()).is_core


def test_validation():
    with pytest.raises(ValueError):
        _cell(population=-1)
    with pytest.raises(ValueError):
        _cell(side_length=0.0)


def test_dimensions():
    assert _cell().dimensions == 2
    cell4 = SkeletalGridCell((0, 0, 0, 0), 1.0, 1, CellStatus.EDGE)
    assert cell4.dimensions == 4


def test_status_enum_values():
    assert CellStatus.CORE.value == "core"
    assert CellStatus.EDGE.value == "edge"
