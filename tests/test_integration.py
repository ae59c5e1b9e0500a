"""End-to-end integration tests across subsystems.

These exercise realistic multi-module paths: extract → summarize →
serialize → archive → persist → reload → match → regenerate, in
different dimensionalities and window semantics, plus cross-checks
between the cell-level matcher and the oracle on full representations.
"""

import io

import pytest

from tests.helpers import roundtrip_bytes
from repro import (
    CSGS,
    ContinuousClusteringQuery,
    DriftingBlobStream,
    GMTIStream,
    STTStream,
    StreamPatternMiningSystem,
    TimeBasedWindowSpec,
    Windower,
    coarsen_sgs,
    parse_query,
    partition_signature,
    regenerate_cluster,
    sgs_from_bytes,
    sgs_to_bytes,
)
from repro.archive.persistence import load_pattern_base
from repro.clustering.dbscan import dbscan
from repro.eval.oracle import oracle_similarity
from repro.matching.cell_match import cell_level_distance
from repro.matching.metric import DistanceMetricSpec


def test_full_pipeline_2d_blobs():
    query = ContinuousClusteringQuery.count_based(0.3, 5, 2, 500, 100)
    system = StreamPatternMiningSystem(
        query.theta_range, query.theta_count, query.dimensions, query.window
    )
    outputs = system.run(DriftingBlobStream(seed=13).objects(4000))
    assert system.archived_count > 0
    # Persist, reload, and match in a "new session".
    blob = roundtrip_bytes(system.pattern_base)
    reloaded = load_pattern_base(io.BytesIO(blob))
    from repro.retrieval.engine import MatchEngine

    engine = MatchEngine(reloaded)
    target = max(
        (sgs for output in outputs for sgs in output.summaries), key=len
    )
    results, stats = engine.match_sgs(target, threshold=0.2, top_k=3)
    assert results and results[0].distance == pytest.approx(0.0, abs=1e-9)
    assert stats.archive_size == system.archived_count


def test_full_pipeline_4d_stt():
    stream = STTStream(total_records=4000, seed=5)
    query = ContinuousClusteringQuery.count_based(0.1, 8, 4, 1500, 500)
    system = StreamPatternMiningSystem(
        query.theta_range, query.theta_count, 4, query.window
    )
    outputs = system.run(stream.objects())
    clustered = [o for o in outputs if o.clusters]
    assert clustered, "the STT stream must produce 4-D clusters"
    # Serialization round-trip preserves matching behaviour.
    sgs = max(clustered[-1].summaries, key=len)
    restored = sgs_from_bytes(sgs_to_bytes(sgs))
    spec = DistanceMetricSpec()
    assert cell_level_distance(sgs, restored, spec) == pytest.approx(0.0)


def test_time_based_pipeline_gmti():
    stream = GMTIStream(seed=21, noise_fraction=0.2)
    window = TimeBasedWindowSpec(win=20.0, slide=5.0)
    csgs = CSGS(2.5, 8, 2)
    buffer = []
    windows = 0
    from repro.streams.source import RateFluctuatingSource

    source = RateFluctuatingSource(stream.points(3000), base_rate=100.0)
    for batch in Windower(window).batches(source):
        output = csgs.process_batch(batch)
        buffer = [o for o in buffer if o.last_window >= batch.index]
        buffer.extend(batch.new_objects)
        oracle = dbscan(buffer, 2.5, 8, batch.index)
        assert partition_signature(output.clusters) == partition_signature(
            oracle
        )
        windows += 1
    assert windows > 3


def test_textual_queries_drive_the_system():
    detect = parse_query(
        "DETECT DensityBasedClusters f+s FROM stream USING "
        "theta_range = 0.3 AND theta_cnt = 5 "
        "IN Windows WITH win = 500 AND slide = 250",
        dimensions=2,
    )
    match = parse_query(
        "GIVEN DensityBasedClusters C SELECT DensityBasedClusters FROM "
        "History WHERE Distance <= 0.3 WEIGHT volume = 0.25 AND "
        "core_count = 0.25 AND avg_density = 0.25 AND "
        "avg_connectivity = 0.25 TOP 2"
    )
    system = StreamPatternMiningSystem(
        detect.theta_range,
        detect.theta_count,
        detect.dimensions,
        detect.window,
        metric=match.metric,
    )
    outputs = system.run(DriftingBlobStream(seed=3).objects(2000))
    target = next(
        sgs for output in reversed(outputs) for sgs in output.summaries
    )
    results, _ = system.match(
        target, match.sim_threshold, top_k=match.top_k
    )
    assert len(results) <= 2


def test_regeneration_consistent_with_matching():
    """A cluster regenerated from its own SGS must look similar to the
    original, both to the oracle and to the cell-level matcher after
    re-extraction."""
    system = StreamPatternMiningSystem(
        0.3, 5, 2, ContinuousClusteringQuery.count_based(
            0.3, 5, 2, 600, 300
        ).window,
    )
    outputs = system.run(DriftingBlobStream(seed=9).objects(2400))
    cluster, sgs = max(
        (
            (c, s)
            for output in outputs
            for c, s in zip(output.clusters, output.summaries)
        ),
        key=lambda pair: pair[0].size,
    )
    regenerated = regenerate_cluster(sgs, seed=1)
    assert oracle_similarity(cluster, regenerated, 0.3) > 0.5


def test_coarse_archive_still_matches_coarse_queries():
    system = StreamPatternMiningSystem(
        0.3, 5, 2,
        ContinuousClusteringQuery.count_based(0.3, 5, 2, 500, 250).window,
        archive_level=1,
    )
    outputs = system.run(DriftingBlobStream(seed=4).objects(3000))
    query = coarsen_sgs(
        max(outputs[-1].summaries, key=len), factor=3
    )
    results, _ = system.match(query, threshold=0.25, top_k=3)
    assert results
    assert results[0].distance == pytest.approx(0.0, abs=1e-9)


def test_three_dimensional_stream():
    import random

    rng = random.Random(11)
    points = []
    for _ in range(1500):
        if rng.random() < 0.7:
            center = rng.choice([(1.0, 1.0, 1.0), (3.0, 3.0, 3.0)])
            points.append(tuple(rng.gauss(c, 0.25) for c in center))
        else:
            points.append(tuple(rng.uniform(0, 4) for _ in range(3)))
    from repro.streams.source import ListSource
    from repro.streams.windows import CountBasedWindowSpec

    csgs = CSGS(0.35, 6, 3)
    buffer = []
    for batch in Windower(CountBasedWindowSpec(500, 250)).batches(
        ListSource(points)
    ):
        output = csgs.process_batch(batch)
        buffer = [o for o in buffer if o.last_window >= batch.index]
        buffer.extend(batch.new_objects)
        oracle = dbscan(buffer, 0.35, 6, batch.index)
        assert partition_signature(output.clusters) == partition_signature(
            oracle
        )
        for sgs in output.summaries:
            assert sgs.dimensions == 3
            assert sgs.is_connected()


def test_one_dimensional_stream():
    import random

    rng = random.Random(12)
    points = [
        (rng.gauss(5.0, 0.3),) if rng.random() < 0.6 else (rng.uniform(0, 10),)
        for _ in range(1200)
    ]
    from repro.streams.source import ListSource
    from repro.streams.windows import CountBasedWindowSpec

    csgs = CSGS(0.2, 4, 1)
    buffer = []
    for batch in Windower(CountBasedWindowSpec(400, 200)).batches(
        ListSource(points)
    ):
        output = csgs.process_batch(batch)
        buffer = [o for o in buffer if o.last_window >= batch.index]
        buffer.extend(batch.new_objects)
        oracle = dbscan(buffer, 0.2, 4, batch.index)
        assert partition_signature(output.clusters) == partition_signature(
            oracle
        )
