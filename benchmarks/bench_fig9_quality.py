"""E4 / Figure 9 (Section 8.3): quality of cluster matching.

For each summarization format, the top-3 matches of each to-be-matched
cluster are retrieved from an archive of real extracted clusters; a
simulated 20-analyst panel (noisy threshold raters on top of the
full-representation oracle similarity — see repro.eval.user_study) then
rates every match. The reported *similar rate* is the fraction of
(analyst x match) ratings that are "similar" or "very similar".

Paper shape: SGS achieves the highest similar rate, clearly above SkPS,
RSP, and especially CRD (whose centroid+radius+density summary cannot
distinguish shapes or density distributions).
"""

from __future__ import annotations

from common import (
    WIN,
    collect_window_outputs,
    emit_bench_record,
    report,
    stt_points,
)
from repro.archive.pattern_base import PatternBase
from repro.eval.harness import Table
from repro.eval.oracle import oracle_similarity
from repro.eval.user_study import SimulatedAnalystPanel
from repro.matching.crd_match import crd_distance
from repro.matching.graph_edit import graph_edit_distance
from repro.matching.metric import DistanceMetricSpec
from repro.matching.subset_match import subset_match_distance
from repro.retrieval.engine import MatchEngine
from repro.summaries.crd import CRDSummarizer
from repro.summaries.rsp import RSPSummarizer
from repro.summaries.skps import SkPSSummarizer

THETA_RANGE, THETA_COUNT = 0.1, 8
SLIDE = 500
TOP_K = 3
N_QUERIES = 8

_state = {}


def _setup():
    if _state:
        return _state
    points = stt_points(WIN + 12 * SLIDE, seed=7)
    outputs = collect_window_outputs(
        points, THETA_RANGE, THETA_COUNT, 4, WIN, SLIDE
    )
    archive = [
        (cluster, sgs)
        for output in outputs[:-2]
        for cluster, sgs in zip(output.clusters, output.summaries)
        if cluster.size >= 30
    ]
    queries = [
        (cluster, sgs)
        for output in outputs[-2:]
        for cluster, sgs in zip(output.clusters, output.summaries)
        if cluster.size >= 30
    ][:N_QUERIES]
    assert len(archive) >= 20 and queries

    crd_sum = CRDSummarizer()
    rsp_sum = RSPSummarizer(
        budget_cells=lambda c: min(40, max(4, c.size // 25)), seed=9
    )
    skps_sum = SkPSSummarizer(THETA_RANGE)

    base = PatternBase()
    pattern_to_cluster = {}
    for cluster, sgs in archive:
        pattern = base.add(sgs, cluster.size)
        pattern_to_cluster[pattern.pattern_id] = cluster
    engine = MatchEngine(
        base, DistanceMetricSpec(), max_alignment_expansions=16
    )

    archived_crd = [crd_sum.summarize(c) for c, _ in archive]
    archived_rsp = [rsp_sum.summarize(c) for c, _ in archive]
    archived_skps = [skps_sum.summarize(c) for c, _ in archive]

    _state.update(
        archive=archive,
        queries=queries,
        engine=engine,
        pattern_to_cluster=pattern_to_cluster,
        archived_crd=archived_crd,
        archived_rsp=archived_rsp,
        archived_skps=archived_skps,
        crd_sum=crd_sum,
        rsp_sum=rsp_sum,
        skps_sum=skps_sum,
    )
    return _state


def _top3_clusters_sgs(query_cluster, query_sgs):
    state = _setup()
    results, _ = state["engine"].match_sgs(query_sgs, threshold=1.0, top_k=TOP_K)
    return [
        state["pattern_to_cluster"][r.pattern.pattern_id] for r in results
    ]


def _top3_by_scan(distances):
    state = _setup()
    order = sorted(range(len(distances)), key=lambda i: distances[i])[:TOP_K]
    return [state["archive"][i][0] for i in order]


def _matched_similarities(method: str):
    """Oracle similarities of the top-3 matches each method returns."""
    state = _setup()
    similarities = []
    for query_cluster, query_sgs in state["queries"]:
        if method == "SGS":
            matches = _top3_clusters_sgs(query_cluster, query_sgs)
        elif method == "CRD":
            query = state["crd_sum"].summarize(query_cluster)
            matches = _top3_by_scan(
                [crd_distance(query, o) for o in state["archived_crd"]]
            )
        elif method == "RSP":
            query = state["rsp_sum"].summarize(query_cluster)
            matches = _top3_by_scan(
                [
                    subset_match_distance(query, o)
                    for o in state["archived_rsp"]
                ]
            )
        elif method == "SkPS":
            query = state["skps_sum"].summarize(query_cluster)
            matches = _top3_by_scan(
                [
                    graph_edit_distance(query, o, beam_width=4)
                    for o in state["archived_skps"]
                ]
            )
        else:
            raise ValueError(method)
        for match in matches:
            similarities.append(
                oracle_similarity(query_cluster, match, THETA_RANGE)
            )
    return similarities


_sim_cache = {}


def _outcome(method: str):
    if method not in _sim_cache:
        panel = SimulatedAnalystPanel(n_analysts=20, noise=0.08, seed=20)
        _sim_cache[method] = panel.rate_method(
            method, _matched_similarities(method)
        )
    return _sim_cache[method]


def test_fig9_sgs_quality(benchmark):
    outcome = benchmark.pedantic(
        lambda: _outcome("SGS"), rounds=1, iterations=1
    )
    assert outcome.total > 0


def test_fig9_crd_quality(benchmark):
    benchmark.pedantic(lambda: _outcome("CRD"), rounds=1, iterations=1)


def test_fig9_report(benchmark):
    methods = ("SGS", "SkPS", "RSP", "CRD")
    outcomes = {m: _outcome(m) for m in methods}
    table = Table(
        "Figure 9 — similar rate of matched clusters (simulated panel)",
        ["format", "similar rate", "very similar rate", "ratings"],
    )
    for method in methods:
        outcome = outcomes[method]
        table.add_row(
            method,
            f"{outcome.similar_rate:.1%}",
            f"{outcome.very_similar_rate:.1%}",
            outcome.total,
        )
        emit_bench_record(
            "quality",
            "stt-fig9",
            format=method,
            similar_rate=round(outcome.similar_rate, 4),
            very_similar_rate=round(outcome.very_similar_rate, 4),
            ratings=outcome.total,
        )
    report(table.render())

    # Paper shape: SGS leads, CRD trails by a wide margin.
    assert outcomes["SGS"].similar_rate >= outcomes["CRD"].similar_rate
    assert outcomes["SGS"].similar_rate >= outcomes["RSP"].similar_rate - 0.05
    benchmark.pedantic(lambda: _outcome("SGS"), rounds=1, iterations=1)
