"""Integration tests for the Pattern Extractor and the full framework."""

import math

import pytest

from tests.helpers import MinPopulationPolicy, covers_point
from repro.config import ContinuousClusteringQuery
from repro.data.synthetic import DriftingBlobStream
from repro.matching.metric import DistanceMetricSpec
from repro.streams.windows import CountBasedWindowSpec
from repro.system.extractor import PatternExtractor
from repro.system.framework import StreamPatternMiningSystem


def _stream(n=3000, seed=1):
    return DriftingBlobStream(
        n_blobs=3, noise_fraction=0.25, seed=seed
    ).objects(n)


def test_extractor_produces_windows():
    extractor = PatternExtractor(0.3, 5, 2, CountBasedWindowSpec(500, 100))
    outputs = list(extractor.run(_stream()))
    assert len(outputs) == 30
    assert [o.window_index for o in outputs] == list(range(30))
    assert any(o.clusters for o in outputs)


def test_extractor_max_windows():
    extractor = PatternExtractor(0.3, 5, 2, CountBasedWindowSpec(500, 100))
    outputs = list(extractor.run(_stream(), max_windows=5))
    assert len(outputs) == 5


def test_full_and_summarized_representations_aligned():
    extractor = PatternExtractor(0.3, 5, 2, CountBasedWindowSpec(500, 100))
    for output in extractor.run(_stream()):
        assert len(output.clusters) == len(output.summaries)
        for cluster, sgs in zip(output.clusters, output.summaries):
            assert sgs.population == cluster.size
            for obj in cluster.members:
                assert covers_point(sgs, obj.coords)


def test_system_archives_while_running():
    system = StreamPatternMiningSystem(
        0.3, 5, 2, CountBasedWindowSpec(500, 100)
    )
    outputs = system.run(_stream())
    expected = sum(len(o.clusters) for o in outputs)
    assert system.archived_count == expected
    assert system.archived_count > 0


def test_system_match_roundtrip():
    system = StreamPatternMiningSystem(
        0.3, 5, 2, CountBasedWindowSpec(500, 100)
    )
    outputs = system.run(_stream())
    query = next(
        sgs for output in reversed(outputs) for sgs in output.summaries
    )
    results, stats = system.match(query, threshold=0.3, top_k=5)
    assert results
    assert results[0].distance == pytest.approx(0.0, abs=1e-9)
    assert stats.archive_size == system.archived_count


def test_system_with_archive_policy():
    system = StreamPatternMiningSystem(
        0.3,
        5,
        2,
        CountBasedWindowSpec(500, 100),
        archive_policy=MinPopulationPolicy(40),
    )
    system.run(_stream())
    for pattern in system.pattern_base.all_patterns():
        assert pattern.full_size >= 40


def test_system_with_coarse_archive_level():
    fine = StreamPatternMiningSystem(0.3, 5, 2, CountBasedWindowSpec(500, 100))
    coarse = StreamPatternMiningSystem(
        0.3, 5, 2, CountBasedWindowSpec(500, 100), archive_level=1
    )
    fine.run(_stream(seed=4))
    coarse.run(_stream(seed=4))
    assert coarse.pattern_base.summary_bytes() < fine.pattern_base.summary_bytes()


def test_system_position_sensitive_metric():
    system = StreamPatternMiningSystem(
        0.3,
        5,
        2,
        CountBasedWindowSpec(500, 100),
        metric=DistanceMetricSpec(position_sensitive=True),
    )
    outputs = system.run(_stream(seed=5))
    query = outputs[-1].summaries[0]
    results, _ = system.match(query, threshold=0.4)
    for result in results:
        assert result.pattern.mbr.intersects(query.mbr())


def test_query_spec_constructors():
    query = ContinuousClusteringQuery.count_based(0.3, 5, 2, 500, 100)
    assert query.window.windows_per_object == 5
    query_t = ContinuousClusteringQuery.time_based(0.3, 5, 2, 60.0, 10.0)
    assert query_t.window.windows_per_object == 6
    with pytest.raises(ValueError):
        ContinuousClusteringQuery.count_based(-1.0, 5, 2, 500, 100)
    with pytest.raises(ValueError):
        ContinuousClusteringQuery.count_based(0.3, 0, 2, 500, 100)
    # A non-finite θr used to construct (and poison every later batch);
    # a non-finite win or slide raised OverflowError, not ValueError.
    for bad in (math.nan, math.inf, -math.inf):
        for args in (
            (bad, 5, 2, 60, 10),
            (0.3, 5, 2, bad, 10),
            (0.3, 5, 2, 60, bad),
        ):
            for build in (
                ContinuousClusteringQuery.count_based,
                ContinuousClusteringQuery.time_based,
            ):
                with pytest.raises(ValueError, match="finite"):
                    build(*args)
    # θc and the dimensionality are counts: a fractional, bool or string
    # value is refused, never truncated by int(); an integral float is
    # taken as its int.
    for field, value in (
        ("theta_count", 3.9), ("theta_count", True), ("theta_count", "5"),
        ("dimensions", 2.5), ("dimensions", False), ("dimensions", "2"),
    ):
        counts = dict({"theta_count": 5, "dimensions": 2}, **{field: value})
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ContinuousClusteringQuery(
                0.3, counts["theta_count"], counts["dimensions"],
                CountBasedWindowSpec(500, 100),
            )
    whole = ContinuousClusteringQuery(
        0.3, 5.0, 2.0, CountBasedWindowSpec(500, 100)
    )
    assert (whole.theta_count, whole.dimensions) == (5, 2)
    assert type(whole.theta_count) is int and type(whole.dimensions) is int


def test_matching_query_spec_validation():
    from repro.config import ClusterMatchingQuery

    query = ClusterMatchingQuery(sim_threshold=0.3, top_k=3)
    assert query.metric is not None
    with pytest.raises(ValueError):
        ClusterMatchingQuery(sim_threshold=1.5)
    with pytest.raises(ValueError):
        ClusterMatchingQuery(sim_threshold=0.3, top_k=0)
