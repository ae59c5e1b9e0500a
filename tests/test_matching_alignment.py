"""Unit tests for the anytime alignment search."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tests.helpers import (
    metric_specs,
    overlap_box,
    reference_anytime_search,
    reference_exhaustive_search,
    summary_pairs,
)
from repro.core.cells import CellStatus, SkeletalGridCell
from repro.core.sgs import SGS
from repro.matching.alignment import (
    anytime_alignment_search,
    exhaustive_alignment_search,
)
from repro.matching.metric import DistanceMetricSpec


def _sgs(locations, populations=None, side=0.5):
    cells = [
        SkeletalGridCell(
            loc,
            side,
            populations[i] if populations else 5,
            CellStatus.CORE,
        )
        for i, loc in enumerate(locations)
    ]
    return SGS.from_cells(cells, side)


L_SHAPE = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]


def test_finds_exact_translation():
    a = _sgs(L_SHAPE)
    b = _sgs([(x + 7, y - 3) for x, y in L_SHAPE])
    spec = DistanceMetricSpec()
    result = anytime_alignment_search(a, b, spec)
    assert result.distance == pytest.approx(0.0)
    assert result.alignment == (7, -3)


def test_anytime_never_worse_than_start():
    a = _sgs(L_SHAPE, populations=[1, 2, 3, 4, 5])
    b = _sgs([(x + 2, y) for x, y in L_SHAPE], populations=[5, 4, 3, 2, 1])
    spec = DistanceMetricSpec()
    small = anytime_alignment_search(a, b, spec, max_expansions=1)
    large = anytime_alignment_search(a, b, spec, max_expansions=128)
    assert large.distance <= small.distance + 1e-12


def test_matches_exhaustive_on_small_instances():
    a = _sgs(L_SHAPE)
    b = _sgs([(x + 1, y + 1) for x, y in L_SHAPE[:4]])
    spec = DistanceMetricSpec()
    exact = exhaustive_alignment_search(a, b, spec)
    anytime = anytime_alignment_search(a, b, spec, max_expansions=256)
    assert anytime.distance == pytest.approx(exact.distance, abs=1e-9)


def test_position_sensitive_uses_zero_alignment():
    a = _sgs(L_SHAPE)
    spec = DistanceMetricSpec(position_sensitive=True)
    result = anytime_alignment_search(a, a, spec)
    assert result.alignment == (0, 0)
    assert result.distance == 0.0
    assert result.evaluated == 1


def test_budget_limits_evaluations():
    a = _sgs(L_SHAPE)
    b = _sgs([(x + 4, y + 4) for x, y in L_SHAPE])
    spec = DistanceMetricSpec()
    tight = anytime_alignment_search(a, b, spec, max_expansions=2)
    loose = anytime_alignment_search(a, b, spec, max_expansions=64)
    assert tight.evaluated <= loose.evaluated


def test_exhaustive_explores_overlap_box():
    a = _sgs([(0, 0)])
    b = _sgs([(3, 3)])
    spec = DistanceMetricSpec()
    exact = exhaustive_alignment_search(a, b, spec, margin=0)
    assert exact.distance == pytest.approx(0.0)
    assert exact.alignment == (3, 3)


def _triple(result):
    return result.distance, result.alignment, result.evaluated


@settings(max_examples=60, deadline=None)
@given(summary_pairs(), metric_specs(), st.sampled_from([1, 4, 16, 64]))
def test_anytime_search_equals_reference_driven_search(pair, spec, budget):
    """Same floats in, same search out: distance, alignment and the
    number of shifts evaluated equal those of the identical best-first
    search scored by the reference distance."""
    a, b = pair
    if a.dimensions > 2:
        budget = min(budget, 4)  # 3^d - 1 reference scans per expansion
    assert _triple(
        anytime_alignment_search(a, b, spec, max_expansions=budget)
    ) == reference_anytime_search(a, b, spec, max_expansions=budget)


@settings(max_examples=40, deadline=None)
@given(summary_pairs(), metric_specs(position_sensitive=False), st.integers(0, 1))
def test_exhaustive_search_equals_reference_driven_search(pair, spec, margin):
    a, b = pair
    assume(math.prod(len(r) for r in overlap_box(a, b, margin)) <= 1500)
    assert _triple(
        exhaustive_alignment_search(a, b, spec, margin=margin)
    ) == reference_exhaustive_search(a, b, spec, margin=margin)
