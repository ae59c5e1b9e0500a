"""Evicting archived patterns keeps every index and cache consistent.

Eviction is ``PatternBase.remove`` on the oldest patterns: the feature
grid, the R-tree, the inverted postings and every engine's ladder cache
must forget an evicted pattern at once.
"""

from tests.helpers import clustered_points, stream_batches
from repro.archive.pattern_base import PatternBase
from repro.core.csgs import CSGS


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


def _admit(base, sgs, size, capacity):
    """Archive one summary, then evict oldest-window patterns until at
    most ``capacity`` remain."""
    base.add(sgs, size)
    while len(base) > capacity:
        oldest = min(
            base.all_patterns(), key=lambda p: (p.window_index, p.pattern_id)
        )
        base.remove(oldest.pattern_id)


def test_indices_consistent_after_eviction():
    base = PatternBase()
    for sgs, size in _summaries(seed=5):
        _admit(base, sgs, size, capacity=3)
    assert len(base) == 3
    # Every surviving pattern is still reachable through both indices.
    for pattern in base.all_patterns():
        assert pattern in base.overlapping(pattern.mbr)
        features = pattern.features.as_tuple()
        lows = tuple(f - 1e-9 for f in features)
        highs = tuple(f + 1e-9 for f in features)
        assert pattern in base.in_feature_ranges(lows, highs)


def test_eviction_invalidates_engine_caches():
    """Regression: eviction must flow through to matching engines — the
    evicted pattern's cached ladders and posting lists are dropped
    immediately, so no stale cache can resurrect it. (Before the
    removal-listener seam, a long-lived engine kept the dead pattern's
    ladders until an amortized sweep much later.)"""
    from repro.retrieval import MatchEngine, MatchQuery

    base = PatternBase(inverted_levels=(1,))
    summaries = _summaries(seed=6)
    engine = MatchEngine(base, use_inverted=False, min_coarse_cells=1)
    inverted_engine = MatchEngine(base)
    for sgs, size in summaries[:6]:
        _admit(base, sgs, size, capacity=4)
    # Build ladder caches (both engines) over the current archive.
    query = MatchQuery(sgs=summaries[0][0], threshold=0.9, coarse_level=1)
    engine.match(query)
    cached_ids = {key[0] for key in engine._ladders}
    assert cached_ids, "test needs cached ladders to evict from"
    # Admit more patterns: the oldest are evicted.
    for sgs, size in summaries[6:]:
        _admit(base, sgs, size, capacity=4)
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
