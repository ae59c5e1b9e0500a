"""E8 / ablations of Section 7.2's design choices.

1. Filter-and-refine vs refine-everything: how much query time and work
   the feature-index + cluster-level filter saves over running the
   grid-cell-level match on every archived cluster.
2. Anytime alignment search: distance quality vs expansion budget,
   compared against the exhaustive (exact) alignment search.
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
from repro.archive.pattern_base import PatternBase
from repro.eval.harness import Table, fmt_seconds
from repro.matching.alignment import (
    anytime_alignment_search,
    exhaustive_alignment_search,
)
from repro.matching.metric import DistanceMetricSpec
from repro.retrieval.engine import MatchEngine

THETA_RANGE, THETA_COUNT = 0.1, 8
SLIDE = 500
THRESHOLD = 0.25

_state = {}


def _setup():
    if _state:
        return _state
    points = stt_points(WIN + 10 * SLIDE, seed=23)
    outputs = collect_window_outputs(
        points, THETA_RANGE, THETA_COUNT, 4, WIN, SLIDE
    )
    base = PatternBase()
    for output in outputs[:-1]:
        for cluster, sgs in zip(output.clusters, output.summaries):
            if cluster.size >= 20:
                base.add(sgs, cluster.size)
    queries = [
        sgs
        for cluster, sgs in zip(outputs[-1].clusters, outputs[-1].summaries)
        if cluster.size >= 20
    ][:6]
    _state.update(base=base, queries=queries)
    return _state


def _filter_and_refine() -> tuple:
    state = _setup()
    engine = MatchEngine(
        state["base"], DistanceMetricSpec(), max_alignment_expansions=16
    )
    start = time.perf_counter()
    refined = 0
    for query in state["queries"]:
        _, stats = engine.match_sgs(query, THRESHOLD)
        refined += stats.refined
    return (time.perf_counter() - start) / len(state["queries"]), refined


def _refine_everything() -> tuple:
    state = _setup()
    spec = DistanceMetricSpec()
    start = time.perf_counter()
    refined = 0
    for query in state["queries"]:
        for pattern in state["base"].all_patterns():
            anytime_alignment_search(
                query, pattern.sgs, spec, max_expansions=16
            )
            refined += 1
    return (time.perf_counter() - start) / len(state["queries"]), refined


def test_ablation_filter_and_refine(benchmark):
    _setup()
    benchmark.pedantic(_filter_and_refine, rounds=1, iterations=1)


def test_ablation_refine_everything(benchmark):
    _setup()
    benchmark.pedantic(_refine_everything, rounds=1, iterations=1)


def test_ablation_matching_report(benchmark):
    state = _setup()
    with_filter, refined_filter = _filter_and_refine()
    without_filter, refined_all = _refine_everything()
    table = Table(
        "Ablation — filter-and-refine vs refine-everything",
        ["strategy", "avg query time", "cell-level matches run"],
    )
    table.add_row("filter-and-refine", fmt_seconds(with_filter), refined_filter)
    table.add_row("refine everything", fmt_seconds(without_filter), refined_all)
    report(table.render())
    emit_bench_record(
        "matching",
        "stt-filter-refine",
        filter_and_refine_s=round(with_filter, 5),
        refine_everything_s=round(without_filter, 5),
        refined_with_filter=refined_filter,
        refined_without_filter=refined_all,
    )
    assert with_filter < without_filter
    assert refined_filter < refined_all

    # Anytime alignment quality vs budget.
    spec = DistanceMetricSpec()
    queries = state["queries"]
    patterns = list(state["base"].all_patterns())[:10]
    budgets = (1, 8, 32, 128)
    quality = Table(
        "Ablation — anytime alignment search vs exhaustive",
        ["budget (expansions)", "avg distance", "avg gap to exact"],
    )
    exact = {}
    for i, query in enumerate(queries[:3]):
        for j, pattern in enumerate(patterns):
            exact[(i, j)] = exhaustive_alignment_search(
                query, pattern.sgs, spec, margin=1
            ).distance
    gaps_by_budget = {}
    for budget in budgets:
        distances, gaps = [], []
        for i, query in enumerate(queries[:3]):
            for j, pattern in enumerate(patterns):
                result = anytime_alignment_search(
                    query, pattern.sgs, spec, max_expansions=budget
                )
                distances.append(result.distance)
                gaps.append(result.distance - exact[(i, j)])
        avg_gap = sum(gaps) / len(gaps)
        gaps_by_budget[budget] = avg_gap
        quality.add_row(
            budget,
            f"{sum(distances) / len(distances):.4f}",
            f"{avg_gap:.4f}",
        )
    report(quality.render())

    # Anytime property: more budget never hurts; gaps are non-negative.
    assert all(gap >= -1e-9 for gap in gaps_by_budget.values())
    assert gaps_by_budget[128] <= gaps_by_budget[1] + 1e-9
    benchmark.pedantic(_filter_and_refine, rounds=1, iterations=1)
