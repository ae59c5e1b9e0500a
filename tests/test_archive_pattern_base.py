"""Unit tests for the Pattern Base (dual-indexed archive)."""

from tests.helpers import clustered_points, stream_batches
from repro.archive.pattern_base import PatternBase
from repro.core.csgs import CSGS
from repro.core.features import ClusterFeatures
from repro.eval.memory import sgs_bytes
from repro.geometry.mbr import MBR


def _summaries(n_windows=10, seed=1):
    points = clustered_points(
        [(2.0, 2.0), (6.0, 5.0)], per_cluster=300, noise=150, seed=seed
    )
    csgs = CSGS(0.35, 5, 2)
    results = []
    for batch in stream_batches(points, 300, 100):
        output = csgs.process_batch(batch)
        for cluster, sgs in zip(output.clusters, output.summaries):
            results.append((sgs, cluster.size))
    return results


def test_add_and_len():
    base = PatternBase()
    for sgs, size in _summaries():
        base.add(sgs, size)
    assert len(base) > 0
    assert len(base) == len(list(base.all_patterns()))


def test_pattern_ids_unique_and_retrievable():
    base = PatternBase()
    patterns = [base.add(sgs, size) for sgs, size in _summaries()]
    ids = [p.pattern_id for p in patterns]
    assert len(set(ids)) == len(ids)
    for pattern in patterns:
        assert base.get(pattern.pattern_id) is pattern
        assert pattern.pattern_id in base


def test_locational_lookup_matches_bruteforce():
    base = PatternBase()
    patterns = [base.add(sgs, size) for sgs, size in _summaries()]
    probe = MBR((1.0, 1.0), (3.0, 3.0))
    expected = {p.pattern_id for p in patterns if p.mbr.intersects(probe)}
    got = {p.pattern_id for p in base.overlapping(probe)}
    assert got == expected
    assert expected  # the probe really overlaps something


def test_feature_lookup_matches_bruteforce():
    base = PatternBase()
    patterns = [base.add(sgs, size) for sgs, size in _summaries()]
    lows = (0.0, 0.0, 0.0, 0.0)
    highs = (40.0, 30.0, 200.0, 4.0)
    expected = {
        p.pattern_id
        for p in patterns
        if all(
            low <= f <= high
            for f, low, high in zip(p.features.as_tuple(), lows, highs)
        )
    }
    got = {p.pattern_id for p in base.in_feature_ranges(lows, highs)}
    assert got == expected


def test_features_derived_from_sgs():
    base = PatternBase()
    for sgs, size in _summaries()[:3]:
        pattern = base.add(sgs, size)
        assert pattern.features == ClusterFeatures.from_sgs(sgs)
        assert pattern.mbr == sgs.mbr()
        assert pattern.window_index == sgs.window_index


def test_summary_bytes_totals():
    base = PatternBase()
    expected = 0
    for sgs, size in _summaries():
        base.add(sgs, size)
        expected += sgs_bytes(sgs)
    assert base.summary_bytes() == expected


def test_remove():
    base = PatternBase()
    patterns = [base.add(sgs, size) for sgs, size in _summaries()]
    victim = patterns[0]
    assert base.remove(victim.pattern_id)
    assert not base.remove(victim.pattern_id)
    assert victim.pattern_id not in base
    assert victim.pattern_id not in {
        p.pattern_id for p in base.overlapping(victim.mbr)
    }
    lows = tuple(f - 0.01 for f in victim.features.as_tuple())
    highs = tuple(f + 0.01 for f in victim.features.as_tuple())
    assert victim.pattern_id not in {
        p.pattern_id for p in base.in_feature_ranges(lows, highs)
    }


def test_restore_preserves_id_and_advances_allocator():
    from repro.archive.pattern_base import ArchivedPattern

    base = PatternBase()
    summaries = _summaries()
    sgs, size = summaries[0]
    pattern = base.restore(ArchivedPattern(7, sgs, size))
    assert pattern.pattern_id == 7 and pattern.sgs is sgs
    assert base.get(7) is pattern
    # Both indices answer for the restored pattern's record.
    assert pattern in base.overlapping(pattern.mbr)
    features = pattern.features.as_tuple()
    assert pattern in base.in_feature_ranges(features, features)
    # The allocator advanced past the restored id.
    fresh = base.add(summaries[1][0], summaries[1][1])
    assert fresh.pattern_id == 8


def test_restore_rejects_duplicate_id():
    import pytest
    from repro.archive.pattern_base import ArchivedPattern

    base = PatternBase()
    (sgs, size), *_ = _summaries()
    base.restore(ArchivedPattern(3, sgs, size))
    with pytest.raises(ValueError):
        base.restore(ArchivedPattern(3, sgs, size))
