"""E5 / Section 6.1: multi-resolution SGS — storage vs matching quality.

Archives the same extracted clusters at resolution levels 0, 1 and 2
(compression rate θ=3) and measures, per level: total storage, average
matching-query time, and the oracle quality of the top-3 matches. The
tech-report companion of the paper reports this trade-off; the expected
shape is monotone: coarser levels are smaller and faster to match but
lose matching quality.
"""

from __future__ import annotations

import time

from common import (
    WIN,
    collect_window_outputs,
    emit_bench_record,
    report,
    stt_points,
)
from repro.archive.archiver import PatternArchiver
from repro.archive.pattern_base import PatternBase
from repro.core.multires import coarsen_sgs
from repro.eval.harness import Table, fmt_bytes, fmt_seconds
from repro.eval.oracle import oracle_similarity
from repro.matching.metric import DistanceMetricSpec
from repro.retrieval.engine import MatchEngine

THETA_RANGE, THETA_COUNT = 0.1, 8
SLIDE = 500
LEVELS = (0, 1, 2)
FACTOR = 3

_state = {}


def _setup():
    if _state:
        return _state
    points = stt_points(WIN + 10 * SLIDE, seed=11)
    outputs = collect_window_outputs(
        points, THETA_RANGE, THETA_COUNT, 4, WIN, SLIDE
    )
    archive = [
        (cluster, sgs)
        for output in outputs[:-1]
        for cluster, sgs in zip(output.clusters, output.summaries)
        if cluster.size >= 30
    ]
    queries = [
        (cluster, sgs)
        for cluster, sgs in zip(outputs[-1].clusters, outputs[-1].summaries)
        if cluster.size >= 30
    ][:6]
    levels = {}
    for level in LEVELS:
        base = PatternBase()
        archiver = PatternArchiver(base, level=level, factor=FACTOR)
        pattern_to_cluster = {}
        for cluster, sgs in archive:
            pattern = archiver.archive_sgs(sgs, cluster.size)
            pattern_to_cluster[pattern.pattern_id] = cluster
        engine = MatchEngine(
            base, DistanceMetricSpec(), max_alignment_expansions=16
        )
        levels[level] = (base, engine, pattern_to_cluster)
    _state.update(levels=levels, queries=queries)
    return _state


def _query_level(level: int):
    """Run all queries at one level; returns (avg_time, avg_similarity)."""
    state = _setup()
    base, engine, pattern_to_cluster = state["levels"][level]
    total_time = 0.0
    similarities = []
    for query_cluster, query_sgs in state["queries"]:
        query = query_sgs
        for _ in range(level):
            query = coarsen_sgs(query, FACTOR)
        start = time.perf_counter()
        results, _ = engine.match_sgs(query, threshold=1.0, top_k=3)
        total_time += time.perf_counter() - start
        for result in results:
            match_cluster = pattern_to_cluster[result.pattern.pattern_id]
            similarities.append(
                oracle_similarity(query_cluster, match_cluster, THETA_RANGE)
            )
    avg_similarity = (
        sum(similarities) / len(similarities) if similarities else 0.0
    )
    return total_time / len(state["queries"]), avg_similarity


def test_multires_level0_matching(benchmark):
    _setup()
    benchmark.pedantic(lambda: _query_level(0), rounds=1, iterations=1)


def test_multires_level2_matching(benchmark):
    _setup()
    benchmark.pedantic(lambda: _query_level(2), rounds=1, iterations=1)


def test_multires_report(benchmark):
    state = _setup()
    table = Table(
        "Multi-resolution SGS — storage / query time / quality per level",
        ["level", "cells", "storage", "query time", "avg match similarity"],
    )
    storage_by_level = {}
    quality_by_level = {}
    for level in LEVELS:
        base, _, _ = state["levels"][level]
        cells = sum(len(p.sgs) for p in base.all_patterns())
        storage = base.summary_bytes()
        storage_by_level[level] = storage
        query_time, similarity = _query_level(level)
        quality_by_level[level] = similarity
        table.add_row(
            level,
            cells,
            fmt_bytes(storage),
            fmt_seconds(query_time),
            f"{similarity:.3f}",
        )
        emit_bench_record(
            "multires",
            "stt-multires",
            level=level,
            cells=cells,
            storage_bytes=storage,
            query_time_s=round(query_time, 5),
            match_similarity=round(similarity, 4),
        )
    report(table.render())

    # Shape: storage strictly shrinks with coarser levels; quality does
    # not improve when resolution degrades.
    assert storage_by_level[0] > storage_by_level[1] > storage_by_level[2]
    assert quality_by_level[0] >= quality_by_level[2] - 0.05
    benchmark.pedantic(lambda: _query_level(1), rounds=1, iterations=1)
