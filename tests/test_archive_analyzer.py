"""The Pattern Analyzer of Figure 4: filter-and-refine matching through
``MatchEngine.match_sgs``."""

import pytest

from tests.helpers import clustered_points, stream_batches
from repro.archive.archiver import PatternArchiver
from repro.archive.pattern_base import PatternBase
from repro.core.csgs import CSGS
from repro.matching.alignment import anytime_alignment_search
from repro.matching.metric import DistanceMetricSpec
from repro.retrieval.engine import MatchEngine


def _populated_base(seed=1):
    points = clustered_points(
        [(2.0, 2.0), (6.0, 5.0), (4.0, 8.0)],
        per_cluster=250,
        noise=120,
        seed=seed,
    )
    base = PatternBase()
    archiver = PatternArchiver(base)
    csgs = CSGS(0.35, 5, 2)
    last_output = None
    for batch in stream_batches(points, 300, 100):
        last_output = csgs.process_batch(batch)
        archiver.archive_output(last_output)
    return base, last_output


def test_self_match_found_with_zero_distance():
    base, last = _populated_base()
    engine = MatchEngine(base)
    query = max(last.summaries, key=len)
    results, stats = engine.match_sgs(query, threshold=0.3)
    assert results, "the archived copy of the query must match"
    assert results[0].distance == pytest.approx(0.0, abs=1e-9)
    assert stats.matches == len(results)


def test_results_sorted_and_within_threshold():
    base, last = _populated_base()
    engine = MatchEngine(base)
    query = last.summaries[0]
    results, _ = engine.match_sgs(query, threshold=0.5)
    distances = [r.distance for r in results]
    assert distances == sorted(distances)
    assert all(d <= 0.5 for d in distances)


def test_top_k_truncates():
    base, last = _populated_base()
    engine = MatchEngine(base)
    query = last.summaries[0]
    all_results, _ = engine.match_sgs(query, threshold=0.6)
    top3, _ = engine.match_sgs(query, threshold=0.6, top_k=3)
    assert len(top3) == min(3, len(all_results))
    assert [r.pattern.pattern_id for r in top3] == [
        r.pattern.pattern_id for r in all_results[:3]
    ]


def test_filter_reduces_refined_candidates():
    base, last = _populated_base()
    engine = MatchEngine(base)
    query = last.summaries[0]
    _, stats = engine.match_sgs(query, threshold=0.15)
    assert stats.archive_size == len(base)
    assert stats.refined <= stats.gathered <= stats.archive_size
    # With a tight threshold the filter must drop a real fraction.
    assert stats.refined < stats.archive_size


def test_filter_never_drops_true_matches():
    """Filter-phase completeness: every pattern that satisfies both the
    cluster-level metric and the refined cell-level distance must appear
    in the results (the index search ranges are safe, Section 7.2)."""
    from repro.core.features import ClusterFeatures
    from repro.matching.metric import cluster_feature_distance

    base, last = _populated_base()
    spec = DistanceMetricSpec()
    engine = MatchEngine(base, spec)
    query = last.summaries[0]
    query_features = ClusterFeatures.from_sgs(query)
    threshold = 0.25
    results, _ = engine.match_sgs(query, threshold=threshold)
    found = {r.pattern.pattern_id for r in results}
    for pattern in base.all_patterns():
        coarse = cluster_feature_distance(
            query_features, pattern.features, spec
        )
        if coarse > threshold:
            continue
        refined = anytime_alignment_search(
            query, pattern.sgs, spec, max_expansions=32
        ).distance
        if refined <= threshold:
            assert pattern.pattern_id in found, (
                f"pattern {pattern.pattern_id} (coarse {coarse}, refined "
                f"{refined}) was filtered out"
            )


def test_position_sensitive_uses_locational_index():
    base, last = _populated_base()
    spec = DistanceMetricSpec(position_sensitive=True)
    engine = MatchEngine(base, spec)
    query = last.summaries[0]
    results, stats = engine.match_sgs(query, threshold=0.4)
    assert stats.gathered <= stats.archive_size
    for result in results:
        assert result.pattern.mbr.intersects(query.mbr())
        assert result.alignment == (0, 0)


def test_refine_fraction_property():
    base, last = _populated_base()
    engine = MatchEngine(base)
    _, stats = engine.match_sgs(last.summaries[0], threshold=0.2)
    assert 0.0 <= stats.refine_fraction <= 1.0


def test_empty_base_returns_nothing():
    engine = MatchEngine(PatternBase())
    _, last = _populated_base()
    results, stats = engine.match_sgs(last.summaries[0], threshold=0.5)
    assert results == []
    assert stats.archive_size == 0
    assert stats.refine_fraction == 0.0
