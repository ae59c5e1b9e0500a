"""The retrieval engine's correctness net.

The heart of it is the oracle equivalence suite: the filter-and-refine
engine must return *exactly* what an exhaustive
``cluster_feature_distance`` + cell-level-match scan over the whole
archive returns — same pattern ids, same refined distances, same order —
across seeded archives, both metric modes, and every coarse entry
level. Everything the planner and the coarse-to-fine ladder do is
pruning; none of it may change answers.
"""

import pytest

from tests.helpers import clustered_points, stream_batches
from repro.archive.archiver import PatternArchiver
from repro.archive.pattern_base import PatternBase
from repro.core.csgs import CSGS
from repro.core.features import ClusterFeatures
from repro.matching.alignment import anytime_alignment_search
from repro.matching.cell_match import cell_level_distance
from repro.matching.metric import DistanceMetricSpec, cluster_feature_distance
from repro.retrieval import (
    ENTRY_FEATURE_GRID,
    ENTRY_RTREE,
    ENTRY_SCAN,
    MatchEngine,
    MatchQuery,
    plan_query,
)

SEEDS = (1, 2, 3)
COARSE_LEVELS = (0, 1, 2)


def _populated_base(seed=1, archive_level=0, byte_budget=None):
    points = clustered_points(
        [(2.0, 2.0), (6.0, 5.0), (4.0, 8.0)],
        per_cluster=250,
        noise=120,
        seed=seed,
    )
    base = PatternBase()
    archiver = PatternArchiver(
        base, level=archive_level, byte_budget_per_cluster=byte_budget
    )
    csgs = CSGS(0.35, 5, 2)
    last_output = None
    for batch in stream_batches(points, 300, 100):
        last_output = csgs.process_batch(batch)
        archiver.archive_output(last_output)
    return base, last_output


def exhaustive_scan(base, query: MatchQuery, max_expansions=32):
    """The trivially correct reference: every archived pattern gets the
    cluster-feature distance and (if within threshold) the cell-level
    match — no index, no coarse entry."""
    features = ClusterFeatures.from_sgs(query.sgs)
    mbr = query.sgs.mbr()
    spec = query.metric
    results = []
    for pattern in base.all_patterns():
        if not query.admits_window(pattern.window_index):
            continue
        if not query.admits_features(pattern.features):
            continue
        coarse = cluster_feature_distance(
            features, pattern.features, spec, mbr, pattern.mbr
        )
        if coarse > query.threshold:
            continue
        if spec.position_sensitive:
            distance = cell_level_distance(query.sgs, pattern.sgs, spec, None)
        else:
            distance = anytime_alignment_search(
                query.sgs, pattern.sgs, spec, max_expansions=max_expansions
            ).distance
        if distance <= query.threshold:
            results.append((pattern.pattern_id, distance))
    results.sort(key=lambda item: (item[1], item[0]))
    return results


def _as_pairs(results):
    return [(r.pattern.pattern_id, r.distance) for r in results]


@pytest.mark.parametrize("coarse_level", COARSE_LEVELS)
@pytest.mark.parametrize("position_sensitive", (False, True))
@pytest.mark.parametrize("seed", SEEDS)
def test_engine_equals_exhaustive_scan(seed, position_sensitive, coarse_level):
    base, last = _populated_base(seed=seed)
    spec = DistanceMetricSpec(position_sensitive=position_sensitive)
    engine = MatchEngine(base, spec)
    for query_sgs in last.summaries[:2]:
        for threshold in (0.15, 0.3, 0.45):
            query = MatchQuery(
                sgs=query_sgs,
                threshold=threshold,
                metric=spec,
                coarse_level=coarse_level,
            )
            results, stats = engine.match(query)
            assert _as_pairs(results) == exhaustive_scan(base, query), (
                f"engine diverged from exhaustive scan (seed={seed}, "
                f"ps={position_sensitive}, coarse={coarse_level}, "
                f"t={threshold})"
            )
            assert stats.gathered <= stats.archive_size
            assert stats.refined <= stats.screened <= stats.gathered


@pytest.mark.parametrize("seed", SEEDS)
def test_engine_equals_exhaustive_on_coarser_stored_levels(seed):
    """Archives stored above level 0 (budget-aware archiver) refine and
    coarse-enter off their stored representation."""
    base, last = _populated_base(seed=seed, archive_level=1)
    engine = MatchEngine(base)
    query = MatchQuery(sgs=last.summaries[0], threshold=0.4, coarse_level=1)
    results, _ = engine.match(query)
    assert _as_pairs(results) == exhaustive_scan(base, query)


def test_window_range_and_feature_constraints_respected():
    base, last = _populated_base(seed=4)
    engine = MatchEngine(base)
    windows = sorted({p.window_index for p in base.all_patterns()})
    lo, hi = windows[1], windows[-2]
    query = MatchQuery(
        sgs=last.summaries[0],
        threshold=0.5,
        window_range=(lo, hi),
        feature_ranges={"volume": (10.0, 200.0)},
    )
    results, _ = engine.match(query)
    assert _as_pairs(results) == exhaustive_scan(base, query)
    assert results, "constraint test needs a non-empty result to bite"
    for result in results:
        assert lo <= result.pattern.window_index <= hi
        assert 10.0 <= result.pattern.features.volume <= 200.0


def test_top_k_truncates_after_stats():
    base, last = _populated_base(seed=5)
    engine = MatchEngine(base)
    full, _ = engine.match(MatchQuery(sgs=last.summaries[0], threshold=0.6))
    top3, stats = engine.match(
        MatchQuery(sgs=last.summaries[0], threshold=0.6, top_k=3)
    )
    assert _as_pairs(top3) == _as_pairs(full)[:3]
    assert stats.matches == len(full)


# ----------------------------------------------------------------------
# Planner entry selection
# ----------------------------------------------------------------------


def _plan_for(base, query):
    features = ClusterFeatures.from_sgs(query.sgs)
    return plan_query(base, query, features, query.sgs.mbr())


def test_planner_picks_rtree_for_position_sensitive():
    base, last = _populated_base(seed=1)
    query = MatchQuery(
        sgs=last.summaries[0],
        threshold=0.3,
        metric=DistanceMetricSpec(position_sensitive=True),
    )
    assert _plan_for(base, query).entry == ENTRY_RTREE


def test_planner_picks_feature_grid_for_selective_ranges():
    base, last = _populated_base(seed=1)
    query = MatchQuery(sgs=last.summaries[0], threshold=0.1)
    assert _plan_for(base, query).entry == ENTRY_FEATURE_GRID


def test_planner_falls_back_to_scan_without_filtering_power():
    base, last = _populated_base(seed=1)
    # threshold 1.0 caps every per-feature bound: all ranges unbounded.
    query = MatchQuery(sgs=last.summaries[0], threshold=1.0)
    assert _plan_for(base, query).entry == ENTRY_SCAN


def test_planner_scans_tiny_archives():
    base, last = _populated_base(seed=1)
    tiny = PatternBase()
    for pattern in list(base.all_patterns())[:3]:
        tiny.add(pattern.sgs, pattern.full_size)
    query = MatchQuery(sgs=last.summaries[0], threshold=0.1)
    assert _plan_for(tiny, query).entry == ENTRY_SCAN


def test_planner_entry_reported_in_stats():
    base, last = _populated_base(seed=1)
    engine = MatchEngine(base)
    _, stats = engine.match(MatchQuery(sgs=last.summaries[0], threshold=0.1))
    assert stats.entry == ENTRY_FEATURE_GRID
    assert stats.plan["archive"] == len(base)
    assert stats.plan["shared_gather"] is False


# ----------------------------------------------------------------------
# Batched serving
# ----------------------------------------------------------------------


def test_match_many_equals_sequential_match():
    base, last = _populated_base(seed=2)
    engine = MatchEngine(base)
    ps_spec = DistanceMetricSpec(position_sensitive=True)
    queries = [
        MatchQuery(sgs=sgs, threshold=threshold, metric=metric, coarse_level=c)
        for sgs in last.summaries[:3]
        for threshold, metric, c in (
            (0.2, DistanceMetricSpec(), 0),
            (0.45, DistanceMetricSpec(), 1),
            (0.3, ps_spec, 0),
        )
    ]
    batched = engine.match_many(queries)
    assert len(batched) == len(queries)
    for query, (results, stats) in zip(queries, batched):
        solo_results, solo_stats = engine.match(query)
        assert _as_pairs(results) == _as_pairs(solo_results)
        assert stats.plan["shared_gather"] is True
        # The shared pool is a superset of the solo gather.
        assert stats.gathered >= solo_stats.gathered
        assert stats.refined == solo_stats.refined


def test_match_many_single_query_not_marked_shared():
    base, last = _populated_base(seed=2)
    engine = MatchEngine(base)
    [(results, stats)] = engine.match_many(
        [MatchQuery(sgs=last.summaries[0], threshold=0.3)]
    )
    assert stats.plan["shared_gather"] is False
    assert _as_pairs(results) == _as_pairs(
        engine.match(MatchQuery(sgs=last.summaries[0], threshold=0.3))[0]
    )


def test_match_many_empty_batch():
    base, _ = _populated_base(seed=2)
    assert MatchEngine(base).match_many([]) == []


# ----------------------------------------------------------------------
# The multi-resolution ladder cache
# ----------------------------------------------------------------------


def test_ladder_cache_reused_and_hint_recorded():
    base, last = _populated_base(seed=3)
    engine = MatchEngine(base, min_coarse_cells=1)
    query = MatchQuery(sgs=last.summaries[0], threshold=0.4, coarse_level=2)
    engine.match(query)
    built = engine.cached_ladder_levels()
    assert built > 0
    hinted = [p for p in base.all_patterns() if p.ladder_hint == 2]
    assert hinted, "coarse matching must record ladder hints"
    engine.match(query)
    assert engine.cached_ladder_levels() == built  # cache, not rebuild


def test_warm_ladders_rebuilds_from_hints():
    base, last = _populated_base(seed=3)
    engine = MatchEngine(base, min_coarse_cells=1)
    engine.match(
        MatchQuery(sgs=last.summaries[0], threshold=0.4, coarse_level=1)
    )
    hints = sum(p.ladder_hint for p in base.all_patterns())
    assert hints > 0
    fresh = MatchEngine(base)
    assert fresh.cached_ladder_levels() == 0
    assert fresh.warm_ladders() == hints
    assert fresh.cached_ladder_levels() == hints


def test_invalidate_drops_cached_ladders():
    base, last = _populated_base(seed=3)
    engine = MatchEngine(base, min_coarse_cells=1)
    engine.match(
        MatchQuery(sgs=last.summaries[0], threshold=0.4, coarse_level=1)
    )
    assert engine.cached_ladder_levels() > 0
    engine.invalidate()
    assert engine.cached_ladder_levels() == 0


# ----------------------------------------------------------------------
# Query-model validation
# ----------------------------------------------------------------------


def test_match_query_validation():
    _, last = _populated_base(seed=1)
    sgs = last.summaries[0]
    with pytest.raises(ValueError):
        MatchQuery(sgs=sgs, threshold=1.5)
    with pytest.raises(ValueError):
        MatchQuery(sgs=sgs, threshold=0.3, top_k=0)
    with pytest.raises(ValueError):
        MatchQuery(sgs=sgs, threshold=0.3, coarse_level=-1)
    with pytest.raises(ValueError):
        MatchQuery(sgs=sgs, threshold=0.3, window_range=(5, 2))
    with pytest.raises(ValueError):
        MatchQuery(sgs=sgs, threshold=0.3, feature_ranges={"bogus": (0, 1)})
    with pytest.raises(ValueError):
        MatchQuery(
            sgs=sgs, threshold=0.3, feature_ranges={"volume": (4.0, 1.0)}
        )


def test_empty_base_returns_nothing():
    _, last = _populated_base(seed=1)
    engine = MatchEngine(PatternBase())
    results, stats = engine.match(
        MatchQuery(sgs=last.summaries[0], threshold=0.5)
    )
    assert results == []
    assert stats.archive_size == 0
    assert stats.refine_fraction == 0.0


def test_ladder_cache_prunes_evicted_patterns():
    """A long-lived engine over a churning archive must not pin evicted
    patterns' ladders forever: once the cache outgrows twice the live
    archive, stale entries are swept."""
    base, last = _populated_base(seed=6)
    engine = MatchEngine(base, min_coarse_cells=1)
    ps = DistanceMetricSpec(position_sensitive=True)
    # Populate both cache phases (canonical and raw).
    engine.match(
        MatchQuery(sgs=last.summaries[0], threshold=0.6, coarse_level=1)
    )
    engine.match(
        MatchQuery(
            sgs=last.summaries[0], threshold=0.6, metric=ps, coarse_level=1
        )
    )
    populated = len(engine._ladders)
    assert populated > 0
    survivors = sorted(p.pattern_id for p in base.all_patterns())[:2]
    for pattern_id in list(p.pattern_id for p in base.all_patterns()):
        if pattern_id not in survivors:
            base.remove(pattern_id)
    engine.match(MatchQuery(sgs=last.summaries[0], threshold=0.3))
    assert len(engine._ladders) < populated
    assert all(key[0] in base for key in engine._ladders)
