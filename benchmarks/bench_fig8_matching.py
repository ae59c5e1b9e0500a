"""E3 / Figure 8 (Section 8.2): efficiency of cluster matching queries.

Archives of 0.1K / 1K / 10K clusters are populated with real C-SGS
output from the STT-like stream, scaled up with randomly perturbed
variants — the same scaling technique the paper applies to its datasets.
For each archive size the bench measures the average response time of a
cluster matching query under each summarization format (SGS via the
filter-and-refine Pattern Analyzer; CRD / RSP / SkPS via their paper
matchers), plus the storage footprint of each format.

Paper shapes this bench must reproduce:
* SGS matching is fast (paper: ~3s at 10K archived clusters on 2011
  hardware) and comparable to trivial CRD matching, because the feature
  indices + cluster-level filter leave only a small fraction (paper:
  ~6%) for the expensive grid-level match;
* RSP and SkPS matching are far slower per archived cluster;
* SGS storage is a ~98% compression over full representations.

RSP/SkPS matching is measured on the smaller archives only (their
per-candidate cost is orders of magnitude higher — exactly the paper's
point) and reported normalized per 1K candidates as well.
"""

from __future__ import annotations

import random
import time

from common import (
    WIN,
    collect_window_outputs,
    emit_bench_record,
    report,
    stt_points,
)
from repro.archive.pattern_base import PatternBase
from repro.core.cells import SkeletalGridCell
from repro.core.sgs import SGS
from repro.eval.harness import Table, fmt_bytes, fmt_seconds
from repro.eval.memory import (
    crd_bytes,
    full_representation_bytes,
    rsp_bytes,
    sgs_bytes,
    skps_bytes,
)
from repro.matching.crd_match import crd_distance
from repro.matching.graph_edit import graph_edit_distance
from repro.matching.metric import DistanceMetricSpec
from repro.matching.subset_match import subset_match_distance
from repro.retrieval.engine import MatchEngine
from repro.summaries.crd import CRD, CRDSummarizer
from repro.summaries.rsp import RSP, RSPSummarizer
from repro.summaries.skps import SkPS, SkPSSummarizer

THETA_RANGE, THETA_COUNT = 0.1, 8
SLIDE = 500
ARCHIVE_SIZES = (100, 1000, 10000)
PAIRWISE_SIZES = (100, 1000)  # RSP
SKPS_SIZES = (100,)  # SkPS (GED is the most expensive matcher)
THRESHOLD = 0.15
RSP_SAMPLE_CAP = 48
SKPS_VERTEX_CAP = 25

_rng = random.Random(99)
_state = {}


def _perturb_sgs(sgs: SGS, rng: random.Random) -> SGS:
    """Derive an archive variant: translate, rescale populations, and
    randomly crop a fraction of the cells, so the synthetic history is
    *feature-diverse* (real long-stream archives contain clusters of all
    volumes and densities, which is what lets the feature indices and
    the cluster-level filter prune most candidates)."""
    shift = tuple(rng.randint(-40, 40) for _ in range(sgs.dimensions))
    scale = rng.uniform(0.5, 2.0)
    keep_fraction = rng.uniform(0.4, 1.0)
    view = sgs.cells  # one view: each read of ``sgs.cells`` rebuilds it
    locations = list(view)
    kept = set(
        rng.sample(
            locations, max(1, int(round(len(locations) * keep_fraction)))
        )
    )
    # Always keep at least one core cell so the summary stays valid.
    if not any(view[loc].is_core for loc in kept):
        core_locs = [
            loc for loc, cell in view.items() if cell.is_core
        ]
        if core_locs:
            kept.add(rng.choice(core_locs))
    cells = []
    for loc in kept:
        cell = view[loc]
        new_loc = tuple(c + s for c, s in zip(loc, shift))
        conn = frozenset(
            tuple(c + s for c, s in zip(other, shift))
            for other in cell.connections
            if other in kept
        )
        population = max(1, int(round(cell.population * scale)))
        cells.append(
            SkeletalGridCell(
                new_loc, cell.side_length, population, cell.status, conn
            )
        )
    return SGS.from_cells(
        cells, sgs.side_length, level=sgs.level, window_index=sgs.window_index
    )


def _perturb_crd(crd: CRD, rng: random.Random) -> CRD:
    return CRD(
        tuple(c + rng.uniform(-0.2, 0.2) for c in crd.centroid),
        crd.radius * rng.uniform(0.8, 1.25),
        crd.density * rng.uniform(0.8, 1.25),
        max(1, int(crd.population * rng.uniform(0.8, 1.25))),
    )


def _perturb_points(points, rng: random.Random, spread=0.01):
    shift = tuple(rng.uniform(-0.3, 0.3) for _ in range(len(points[0])))
    return tuple(
        tuple(v + s + rng.gauss(0, spread) for v, s in zip(p, shift))
        for p in points
    )


def _setup():
    if _state:
        return _state
    points = stt_points(WIN + 10 * SLIDE, seed=3)
    outputs = collect_window_outputs(
        points, THETA_RANGE, THETA_COUNT, 4, WIN, SLIDE
    )
    reals = [
        (cluster, sgs)
        for output in outputs
        for cluster, sgs in zip(output.clusters, output.summaries)
        if cluster.size >= 20
    ]
    assert len(reals) >= 30, "need a seed population of real clusters"
    crd_sum = CRDSummarizer()
    rsp_sum = RSPSummarizer(
        budget_cells=lambda c: min(RSP_SAMPLE_CAP, max(4, c.size // 20)),
        seed=5,
    )
    skps_sum = SkPSSummarizer(THETA_RANGE)

    sgs_store, crd_store, rsp_store, skps_store, full_sizes = [], [], [], [], []
    for cluster, sgs in reals:
        sgs_store.append(sgs)
        crd_store.append(crd_sum.summarize(cluster))
        rsp_store.append(rsp_sum.summarize(cluster))
        skps = skps_sum.summarize(cluster)
        if skps.size > SKPS_VERTEX_CAP:
            keep = sorted(
                _rng.sample(range(skps.size), SKPS_VERTEX_CAP)
            )
            remap = {old: new for new, old in enumerate(keep)}
            edges = frozenset(
                (remap[a], remap[b])
                for a, b in skps.edges
                if a in remap and b in remap
            )
            skps = SkPS(
                tuple(skps.points[i] for i in keep), edges, skps.population
            )
        skps_store.append(skps)
        full_sizes.append(cluster.size)

    # Scale to the largest archive size with perturbed variants.
    target = max(ARCHIVE_SIZES)
    i = 0
    while len(sgs_store) < target:
        base_index = i % len(reals)
        i += 1
        sgs_store.append(_perturb_sgs(sgs_store[base_index], _rng))
        crd_store.append(_perturb_crd(crd_store[base_index], _rng))
        base_rsp = rsp_store[base_index]
        rsp_store.append(
            RSP(_perturb_points(base_rsp.points, _rng), base_rsp.population)
        )
        base_skps = skps_store[base_index]
        skps_store.append(
            SkPS(
                _perturb_points(base_skps.points, _rng),
                base_skps.edges,
                base_skps.population,
            )
        )
        full_sizes.append(full_sizes[base_index])

    # Queries: freshly detected clusters (the last window's).
    queries = [
        (cluster, sgs)
        for cluster, sgs in zip(outputs[-1].clusters, outputs[-1].summaries)
        if cluster.size >= 20
    ][:10]
    assert queries, "need at least one query cluster"

    bases = {}
    for size in ARCHIVE_SIZES:
        base = PatternBase()
        for sgs, full in zip(sgs_store[:size], full_sizes[:size]):
            base.add(sgs, full)
        bases[size] = base

    _state.update(
        sgs_store=sgs_store,
        crd_store=crd_store,
        rsp_store=rsp_store,
        skps_store=skps_store,
        full_sizes=full_sizes,
        queries=queries,
        bases=bases,
        crd_sum=crd_sum,
        rsp_sum=rsp_sum,
        skps_sum=skps_sum,
    )
    return _state


def _time_queries(fn, queries) -> float:
    start = time.perf_counter()
    for query in queries:
        fn(query)
    return (time.perf_counter() - start) / len(queries)


def _sgs_query_time(size: int, collect_stats=None) -> float:
    state = _setup()
    engine = MatchEngine(
        state["bases"][size],
        DistanceMetricSpec(),
        max_alignment_expansions=6,
    )
    queries = [sgs for _, sgs in state["queries"]]
    if size == max(ARCHIVE_SIZES):
        queries = queries[:3]

    def run(query):
        results, stats = engine.match_sgs(query, THRESHOLD, top_k=3)
        if collect_stats is not None:
            collect_stats.append(stats)
        return results

    return _time_queries(run, queries)


def _crd_query_time(size: int) -> float:
    state = _setup()
    store = state["crd_store"][:size]
    crd_sum = state["crd_sum"]
    queries = [crd_sum.summarize(cluster) for cluster, _ in state["queries"]]

    def run(query):
        return sorted(crd_distance(query, other) for other in store)[:3]

    return _time_queries(run, queries)


def _rsp_query_time(size: int) -> float:
    state = _setup()
    store = state["rsp_store"][:size]
    rsp_sum = state["rsp_sum"]
    queries = [
        rsp_sum.summarize(cluster) for cluster, _ in state["queries"][:3]
    ]

    def run(query):
        return sorted(
            subset_match_distance(query, other) for other in store
        )[:3]

    return _time_queries(run, queries)


def _skps_query_time(size: int) -> float:
    state = _setup()
    store = state["skps_store"][:size]
    skps_sum = state["skps_sum"]
    queries = []
    for cluster, _ in state["queries"][:2]:
        queries.append(skps_sum.summarize(cluster))

    def run(query):
        return sorted(
            graph_edit_distance(query, other, beam_width=4)
            for other in store
        )[:3]

    return _time_queries(run, queries)


def test_fig8_sgs_matching_1k(benchmark):
    _setup()
    benchmark.pedantic(lambda: _sgs_query_time(1000), rounds=1, iterations=1)


def test_fig8_sgs_matching_10k(benchmark):
    _setup()
    benchmark.pedantic(lambda: _sgs_query_time(10000), rounds=1, iterations=1)


def test_fig8_crd_matching_10k(benchmark):
    _setup()
    benchmark.pedantic(lambda: _crd_query_time(10000), rounds=1, iterations=1)


def test_fig8_rsp_matching_1k(benchmark):
    _setup()
    benchmark.pedantic(lambda: _rsp_query_time(1000), rounds=1, iterations=1)


def test_fig8_skps_matching_100(benchmark):
    _setup()
    benchmark.pedantic(lambda: _skps_query_time(100), rounds=1, iterations=1)


def test_fig8_report(benchmark):
    state = _setup()
    times = {}
    stats_collected = []
    for size in ARCHIVE_SIZES:
        times[("SGS", size)] = _sgs_query_time(
            size, collect_stats=stats_collected
        )
        times[("CRD", size)] = _crd_query_time(size)
    for size in PAIRWISE_SIZES:
        times[("RSP", size)] = _rsp_query_time(size)
    for size in SKPS_SIZES:
        times[("SkPS", size)] = _skps_query_time(size)

    table = Table(
        "Figure 8a — avg cluster-matching query time vs archive size",
        ["format"] + [str(s) for s in ARCHIVE_SIZES] + ["per-1K (norm.)"],
    )
    for fmt in ("SGS", "CRD", "RSP", "SkPS"):
        cells = []
        largest = None
        for size in ARCHIVE_SIZES:
            value = times.get((fmt, size))
            cells.append(fmt_seconds(value) if value is not None else "-")
            if value is not None:
                largest = (value, size)
        per_1k = largest[0] / largest[1] * 1000 if largest else 0.0
        table.add_row(fmt, *cells, fmt_seconds(per_1k))
        emit_bench_record(
            "matching",
            "stt-fig8",
            format=fmt,
            per_1k_s=round(per_1k, 5),
            **{
                f"query_time_{size}_s": round(times[(fmt, size)], 5)
                for size in ARCHIVE_SIZES
                if (fmt, size) in times
            },
        )
    report(table.render())

    # Storage table (Figure 8b).
    storage = Table(
        "Figure 8b — storage for summaries vs full representation",
        ["format"] + [str(s) for s in ARCHIVE_SIZES],
    )
    sgs_store = state["sgs_store"]
    full_sizes = state["full_sizes"]
    storage.add_row(
        "SGS",
        *[
            fmt_bytes(sum(sgs_bytes(s) for s in sgs_store[:size]))
            for size in ARCHIVE_SIZES
        ],
    )
    storage.add_row(
        "CRD",
        *[
            fmt_bytes(sum(crd_bytes(c) for c in state["crd_store"][:size]))
            for size in ARCHIVE_SIZES
        ],
    )
    storage.add_row(
        "RSP",
        *[
            fmt_bytes(sum(rsp_bytes(r) for r in state["rsp_store"][:size]))
            for size in ARCHIVE_SIZES
        ],
    )
    storage.add_row(
        "SkPS",
        *[
            fmt_bytes(sum(skps_bytes(k) for k in state["skps_store"][:size]))
            for size in ARCHIVE_SIZES
        ],
    )
    storage.add_row(
        "full repr.",
        *[
            fmt_bytes(
                sum(full_representation_bytes(n, 4) for n in full_sizes[:size])
            )
            for size in ARCHIVE_SIZES
        ],
    )
    report(storage.render())

    # Headline statistics mirrored from Section 8.2's prose.
    total_cells = sum(len(s) for s in sgs_store)
    avg_cells = total_cells / len(sgs_store)
    sgs_total = sum(sgs_bytes(s) for s in sgs_store)
    full_total = sum(full_representation_bytes(n, 4) for n in full_sizes)
    compression = 1 - sgs_total / full_total
    refined_fraction = (
        sum(s.refine_fraction for s in stats_collected) / len(stats_collected)
        if stats_collected
        else 0.0
    )
    avg_members = sum(full_sizes) / len(full_sizes)
    report(
        f"avg skeletal grid cells per cluster: {avg_cells:.1f} "
        f"(paper: 68); avg SGS bytes per cluster: "
        f"{sgs_total / len(sgs_store):.0f} (paper: ~1.5KB); "
        f"compression rate vs full representation: {compression:.1%} "
        f"(paper: ~98%); avg fraction needing grid-level match: "
        f"{refined_fraction:.1%} (paper: ~6%)"
    )
    report(
        f"note: compression is 1 - (23/20) * cells/members; our synthetic "
        f"clusters average {avg_members / avg_cells:.1f} members per cell "
        f"vs the paper's ~60 (real trades concentrate on few price "
        f"ticks), which at their density reproduces their ~98%"
    )

    report(
        "note: RSP/SkPS matchers run with capped budgets (48-point "
        "samples; 25 vertices, beam 4) to keep the bench tractable — "
        "their cost is quadratic/cubic in the summary budget where the "
        "SGS cell match is linear in cells, and unlike SGS neither can "
        "use the feature indices, so their cost is strictly linear in "
        "the archive size"
    )

    # Shape assertions. The compression floor is intentionally below the
    # paper's 98%: the rate is density-dependent (see the note above) and
    # our synthetic clusters are an order of magnitude sparser per cell.
    assert compression > 0.6, "SGS must compress heavily"
    assert refined_fraction < 0.5, "the filter phase must prune most work"
    # CRD's three-subtraction matching is by far the fastest, at every
    # archive size — the paper's other Figure-8 ordering claim.
    for size in ARCHIVE_SIZES:
        assert times[("CRD", size)] < times[("SGS", size)]
    assert times[("CRD", 1000)] < times[("RSP", 1000)]
    assert times[("CRD", 100)] < times[("SkPS", 100)]

    benchmark.pedantic(lambda: _sgs_query_time(1000), rounds=1, iterations=1)
