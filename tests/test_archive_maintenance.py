"""Unit tests for archive retention and deduplication."""

import pytest

from tests.helpers import clustered_points, stream_batches
from repro.archive.maintenance import RetentionManager
from repro.archive.pattern_base import PatternBase
from repro.core.csgs import CSGS
from repro.eval.memory import sgs_bytes


def _summaries(seed=1):
    points = clustered_points(
        [(2.0, 2.0), (6.0, 5.0)], per_cluster=250, noise=100, seed=seed
    )
    csgs = CSGS(0.35, 5, 2)
    result = []
    for batch in stream_batches(points, 300, 100):
        output = csgs.process_batch(batch)
        for cluster, sgs in zip(output.clusters, output.summaries):
            result.append((sgs, cluster.size))
    return result


def test_capacity_enforced_evicts_oldest():
    base = PatternBase()
    manager = RetentionManager(base, max_patterns=5)
    for sgs, size in _summaries():
        manager.add(sgs, size)
    assert len(base) == 5
    assert manager.evicted > 0
    windows = [p.window_index for p in base.all_patterns()]
    all_windows = [sgs.window_index for sgs, _ in _summaries()]
    # Only the newest windows survive.
    assert min(windows) >= sorted(set(all_windows))[-4]


def test_byte_budget_enforced():
    base = PatternBase()
    summaries = _summaries(seed=2)
    budget = sum(sgs_bytes(sgs) for sgs, _ in summaries[:4])
    manager = RetentionManager(base, max_bytes=budget)
    for sgs, size in summaries:
        manager.add(sgs, size)
    assert base.summary_bytes() <= budget


def test_dedup_drops_near_duplicates():
    base = PatternBase()
    manager = RetentionManager(base, dedup_threshold=0.05)
    summaries = _summaries(seed=3)
    sgs, size = summaries[0]
    first = manager.add(sgs, size)
    assert first is not None
    again = manager.add(sgs, size)
    assert again is None
    assert manager.deduplicated == 1
    assert len(base) == 1


def test_dedup_respects_window_gap():
    base = PatternBase()
    manager = RetentionManager(
        base, dedup_threshold=0.05, dedup_window_gap=1
    )
    summaries = _summaries(seed=4)
    # The same cluster persists across windows; far-apart windows are
    # re-admitted even when the summary barely changed.
    admitted = 0
    for sgs, size in summaries:
        if manager.add(sgs, size) is not None:
            admitted += 1
    assert 0 < admitted < len(summaries)


def test_indices_consistent_after_eviction():
    base = PatternBase()
    manager = RetentionManager(base, max_patterns=3)
    summaries = _summaries(seed=5)
    for sgs, size in summaries:
        manager.add(sgs, size)
    # Every surviving pattern is still reachable through both indices.
    for pattern in base.all_patterns():
        assert pattern in base.overlapping(pattern.mbr)
        features = pattern.features.as_tuple()
        lows = tuple(f - 1e-9 for f in features)
        highs = tuple(f + 1e-9 for f in features)
        assert pattern in base.in_feature_ranges(lows, highs)


def test_validation():
    with pytest.raises(ValueError):
        RetentionManager(PatternBase(), max_patterns=0)
    with pytest.raises(ValueError):
        RetentionManager(PatternBase(), max_bytes=0)
    with pytest.raises(ValueError):
        RetentionManager(PatternBase(), dedup_threshold=1.5)


def test_eviction_invalidates_engine_caches():
    """Regression: maintenance eviction must flow through to matching
    engines — the evicted pattern's cached ladders and posting lists
    are dropped immediately, so no stale cache can resurrect it.
    (Before the removal-listener seam, a long-lived engine kept the
    dead pattern's ladders until an amortized sweep much later.)"""
    from repro.retrieval import MatchEngine, MatchQuery

    base = PatternBase(inverted_levels=(1,))
    manager = RetentionManager(base, max_patterns=4)
    summaries = _summaries(seed=6)
    engine = MatchEngine(base, use_inverted=False, min_coarse_cells=1)
    inverted_engine = MatchEngine(base)
    for sgs, size in summaries[:6]:
        manager.add(sgs, size)
    # Build ladder caches (both engines) over the current archive.
    query = MatchQuery(sgs=summaries[0][0], threshold=0.9, coarse_level=1)
    engine.match(query)
    cached_ids = {key[0] for key in engine._ladders}
    assert cached_ids, "test needs cached ladders to evict from"
    # Admit more patterns: the retention manager evicts the oldest.
    for sgs, size in summaries[6:]:
        manager.add(sgs, size)
    assert manager.evicted > 0
    evicted_ids = cached_ids - {p.pattern_id for p in base.all_patterns()}
    assert evicted_ids, "eviction must have hit a cached pattern"
    index = base.inverted_index()
    for pattern_id in evicted_ids:
        # The ladder cache forgot the pattern the moment it left...
        assert all(key[0] != pattern_id for key in engine._ladders), (
            "stale ladder survived eviction"
        )
        # ...and so did the posting lists.
        assert pattern_id not in index
    # No query — through either screen — can resurrect an evicted id.
    live = {p.pattern_id for p in base.all_patterns()}
    for probe in (engine, inverted_engine):
        results, _ = probe.match(query)
        assert {r.pattern.pattern_id for r in results} <= live
