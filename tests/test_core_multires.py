"""Unit tests for multi-resolution SGS compression (Section 6.1)."""

import pytest

from tests.helpers import clustered_points, covers_point, stream_batches
from repro.core.cells import CellStatus, SkeletalGridCell
from repro.core.csgs import CSGS
from repro.core.multires import cells_needed_at_level, coarsen_sgs
from repro.core.sgs import SGS


def _extracted_sgs():
    points = clustered_points([(2.0, 2.0)], per_cluster=400, seed=1, std=0.5)
    csgs = CSGS(0.3, 5, 2)
    output = None
    for batch in stream_batches(points, 400, 200):
        output = csgs.process_batch(batch)
    assert output is not None and output.summaries
    return max(output.summaries, key=len)


def _ladder(sgs, factor, levels):
    """``[sgs, coarsen(sgs), ...]``: ``levels`` coarsenings deep."""
    ladder = [sgs]
    for _ in range(levels):
        ladder.append(coarsen_sgs(ladder[-1], factor))
    return ladder


def test_population_conserved_across_levels():
    sgs = _extracted_sgs()
    for level in _ladder(sgs, factor=3, levels=3):
        assert level.population == sgs.population


def test_cell_count_decreases():
    sgs = _extracted_sgs()
    ladder = _ladder(sgs, factor=3, levels=2)
    assert len(ladder[1]) <= len(ladder[0])
    assert len(ladder[2]) <= len(ladder[1])
    assert len(ladder[2]) >= 1


def test_side_length_multiplies():
    sgs = _extracted_sgs()
    coarse = coarsen_sgs(sgs, factor=3)
    assert coarse.side_length == pytest.approx(sgs.side_length * 3)
    assert coarse.level == sgs.level + 1


def test_core_status_inherited():
    sgs = _extracted_sgs()
    coarse = coarsen_sgs(sgs, factor=3)
    # A coarse cell is core iff any covered fine cell is core.
    for coord, cell in coarse.cells.items():
        children = [
            fine
            for floc, fine in sgs.cells.items()
            if tuple(c // 3 for c in floc) == coord
        ]
        assert children
        if any(child.is_core for child in children):
            assert cell.is_core
        else:
            assert not cell.is_core


def test_coverage_preserved():
    sgs = _extracted_sgs()
    coarse = coarsen_sgs(sgs, factor=3)
    # Every fine cell's center lies in some coarse cell of the summary.
    for cell in sgs.cells.values():
        assert covers_point(coarse, cell.center())


def test_coarse_connectivity_preserved():
    sgs = _extracted_sgs()
    coarse = coarsen_sgs(sgs, factor=3)
    if coarse.core_count > 1:
        assert coarse.is_connected()


def test_mbr_grows_monotonically():
    sgs = _extracted_sgs()
    coarse = coarsen_sgs(sgs, factor=3)
    assert coarse.mbr().contains(sgs.mbr())


def test_negative_coordinates_coarsen_correctly():
    cells = [
        SkeletalGridCell((-1, -1), 1.0, 3, CellStatus.CORE, frozenset()),
        SkeletalGridCell((-2, -2), 1.0, 2, CellStatus.EDGE),
    ]
    sgs = SGS.from_cells(cells, 1.0)
    coarse = coarsen_sgs(sgs, factor=2)
    assert set(coarse.cells) == {(-1, -1)}
    assert coarse.cells[(-1, -1)].population == 5
    assert coarse.cells[(-1, -1)].is_core


def test_cells_needed_prediction_matches_reality():
    sgs = _extracted_sgs()
    for level in (1, 2):
        predicted = cells_needed_at_level(sgs, 3, level)
        actual = _ladder(sgs, 3, level)[-1]
        assert predicted == len(actual)


def test_validation():
    sgs = _extracted_sgs()
    with pytest.raises(ValueError):
        coarsen_sgs(sgs, factor=1)
    with pytest.raises(ValueError):
        cells_needed_at_level(coarsen_sgs(sgs, 3), 3, 0)
