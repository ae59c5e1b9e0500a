"""Unit tests for the grid-cell-level cluster match."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import (
    metric_specs,
    overlap_box,
    reference_cell_level_distance,
    summary_pairs,
)
from repro.core.cells import CellStatus, SkeletalGridCell
from repro.core.serialize import sgs_from_bytes, sgs_to_bytes
from repro.core.sgs import SGS
from repro.matching.cell_match import cell_level_distance
from repro.matching.metric import DistanceMetricSpec


def _sgs(locations, populations=None, side=0.5, statuses=None, conns=None):
    cells = []
    for i, loc in enumerate(locations):
        pop = populations[i] if populations else 5
        status = statuses[i] if statuses else CellStatus.CORE
        conn = conns[i] if conns else frozenset()
        cells.append(SkeletalGridCell(loc, side, pop, status, frozenset(conn)))
    return SGS.from_cells(cells, side)


def test_identical_sgs_zero_distance():
    sgs = _sgs([(0, 0), (1, 0)])
    spec = DistanceMetricSpec()
    assert cell_level_distance(sgs, sgs, spec) == 0.0


def test_translated_sgs_zero_under_matching_alignment():
    a = _sgs([(0, 0), (1, 0)])
    b = _sgs([(10, 5), (11, 5)])
    spec = DistanceMetricSpec()
    assert cell_level_distance(a, b, spec, alignment=(10, 5)) == 0.0
    assert cell_level_distance(a, b, spec, alignment=(0, 0)) == 1.0


def test_disjoint_is_max_distance():
    a = _sgs([(0, 0)])
    b = _sgs([(9, 9)])
    spec = DistanceMetricSpec()
    assert cell_level_distance(a, b, spec) == 1.0


def test_population_difference_increases_distance():
    a = _sgs([(0, 0)], populations=[10])
    near = _sgs([(0, 0)], populations=[11])
    far = _sgs([(0, 0)], populations=[40])
    spec = DistanceMetricSpec()
    assert cell_level_distance(a, near, spec) < cell_level_distance(
        a, far, spec
    )


def test_status_mismatch_costs():
    a = _sgs([(0, 0)], statuses=[CellStatus.CORE])
    b = _sgs([(0, 0)], statuses=[CellStatus.EDGE])
    spec = DistanceMetricSpec()
    assert cell_level_distance(a, b, spec) > 0.0


def test_connection_difference_costs():
    a = _sgs([(0, 0), (1, 0)], conns=[{(1, 0)}, {(0, 0)}])
    b = _sgs([(0, 0), (1, 0)], conns=[frozenset(), frozenset()])
    spec = DistanceMetricSpec()
    assert cell_level_distance(a, b, spec) > 0.0


def test_connections_normalized_by_alignment():
    # Shifting both cells and their connection targets leaves distance 0.
    a = _sgs([(0, 0), (1, 0)], conns=[{(1, 0)}, {(0, 0)}])
    b = _sgs([(4, 4), (5, 4)], conns=[{(5, 4)}, {(4, 4)}])
    spec = DistanceMetricSpec()
    assert cell_level_distance(a, b, spec, alignment=(4, 4)) == pytest.approx(
        0.0
    )


def test_symmetry():
    a = _sgs([(0, 0), (1, 0), (1, 1)], populations=[3, 6, 9])
    b = _sgs([(0, 0), (0, 1)], populations=[4, 4])
    spec = DistanceMetricSpec()
    assert cell_level_distance(a, b, spec) == pytest.approx(
        cell_level_distance(b, a, spec)
    )


def test_range_is_zero_one():
    a = _sgs([(0, 0), (1, 0), (2, 0)], populations=[1, 2, 3])
    b = _sgs([(0, 0), (5, 5)], populations=[9, 9])
    spec = DistanceMetricSpec()
    d = cell_level_distance(a, b, spec)
    assert 0.0 <= d <= 1.0


def test_position_sensitive_rejects_nonzero_alignment():
    a = _sgs([(0, 0)])
    spec = DistanceMetricSpec(position_sensitive=True)
    with pytest.raises(ValueError):
        cell_level_distance(a, a, spec, alignment=(1, 0))


def test_dimension_mismatch_rejected():
    a = _sgs([(0, 0)])
    cells = [SkeletalGridCell((0, 0, 0), 0.5, 1, CellStatus.CORE)]
    b = SGS.from_cells(cells, 0.5)
    spec = DistanceMetricSpec()
    with pytest.raises(ValueError):
        cell_level_distance(a, b, spec)


@settings(max_examples=100, deadline=None)
@given(summary_pairs(), metric_specs(), st.booleans())
def test_kernel_equals_reference_bit_for_bit(pair, spec, stored):
    """The packed-table kernel returns the very float the dict walk it
    replaced returns (``==``, no tolerance) at every shift of the
    overlap box and one cell beyond it — whether the summaries hold
    absolute connections or were decoded from their blobs."""
    a, b = pair
    zero = (0,) * a.dimensions
    shifts = [None, zero]
    if not spec.position_sensitive:
        shifts += itertools.product(*overlap_box(a, b, margin=1))
    kernel_a, kernel_b = (
        (sgs_from_bytes(sgs_to_bytes(a)), sgs_from_bytes(sgs_to_bytes(b)))
        if stored
        else (a, b)
    )
    cells_a, cells_b = a.cells, b.cells
    for shift in shifts:
        assert cell_level_distance(
            kernel_a, kernel_b, spec, shift
        ) == reference_cell_level_distance(cells_a, cells_b, spec, shift), shift


def test_unmatched_cells_are_summed_one_by_one():
    """``k`` sequential ``+ 1.0`` is not always ``+ float(k)`` in
    binary64; the kernel keeps the reference's order of additions."""
    a = _sgs([(0, 0), (5, 0), (6, 0)], populations=[1, 1, 1])
    b = _sgs([(0, 0)], populations=[2])
    spec = DistanceMetricSpec()
    matched = 1.0 / 3  # equal status, no connections, density term 1.0
    assert (matched + 1.0) + 1.0 != matched + 2.0
    assert cell_level_distance(a, b, spec) == ((matched + 1.0) + 1.0) / 3
    assert cell_level_distance(a, b, spec) == reference_cell_level_distance(
        a.cells, b.cells, spec
    )
