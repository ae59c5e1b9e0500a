"""Unit tests for the Pattern Archiver (selection + resolution)."""

import pytest

from tests.helpers import MinPopulationPolicy, clustered_points, stream_batches
from repro.archive.archiver import ArchiveAllPolicy, PatternArchiver
from repro.archive.pattern_base import PatternBase
from repro.core.csgs import CSGS
from repro.eval.memory import sgs_cell_bytes


def _outputs(seed=1):
    points = clustered_points(
        [(2.0, 2.0), (6.0, 5.0)], per_cluster=300, noise=100, seed=seed
    )
    csgs = CSGS(0.35, 5, 2)
    return [
        csgs.process_batch(batch) for batch in stream_batches(points, 300, 100)
    ]


def test_archive_all():
    base = PatternBase()
    archiver = PatternArchiver(base)
    total = 0
    for output in _outputs():
        total += len(archiver.archive_output(output))
    assert total == len(base)
    assert total == sum(len(o.clusters) for o in _outputs())


def test_fixed_coarse_level():
    fine_base = PatternBase()
    coarse_base = PatternBase()
    PatternArchiver(fine_base, level=0).archive_output(_outputs()[-1])
    PatternArchiver(coarse_base, level=1).archive_output(_outputs()[-1])
    fine = {p.pattern_id: p for p in fine_base.all_patterns()}
    coarse = {p.pattern_id: p for p in coarse_base.all_patterns()}
    assert len(fine) == len(coarse)
    for pid in fine:
        assert coarse[pid].sgs.level == 1
        assert len(coarse[pid].sgs) <= len(fine[pid].sgs)
        assert coarse[pid].sgs.population == fine[pid].sgs.population


def test_budget_aware_resolution_selection():
    output = _outputs()[-1]
    biggest = max(output.summaries, key=len)
    per_cell = sgs_cell_bytes(2)
    # Budget below the level-0 size forces a coarser level.
    tight_budget = (len(biggest) - 1) * per_cell
    base = PatternBase()
    archiver = PatternArchiver(
        base, byte_budget_per_cluster=tight_budget, factor=3, max_level=3
    )
    pattern = archiver.archive_sgs(biggest, full_size=100)
    assert pattern is not None
    assert pattern.summary_bytes() <= tight_budget
    assert pattern.sgs.level >= 1


def test_budget_aware_keeps_level0_when_it_fits():
    output = _outputs()[-1]
    sgs = output.summaries[0]
    base = PatternBase()
    archiver = PatternArchiver(
        base, byte_budget_per_cluster=10**9
    )
    pattern = archiver.archive_sgs(sgs, full_size=100)
    assert pattern.sgs.level == 0


def test_rejected_by_policy_returns_none():
    base = PatternBase()
    archiver = PatternArchiver(
        base, policy=MinPopulationPolicy(10**9)
    )
    sgs = _outputs()[-1].summaries[0]
    assert archiver.archive_sgs(sgs, full_size=5) is None
    assert len(base) == 0


def test_level_validation():
    with pytest.raises(ValueError):
        PatternArchiver(PatternBase(), level=-1)
