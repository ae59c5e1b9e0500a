"""Index-backend ablation: C-SGS per NeighborProvider backend.

Runs the same scaled-down Figure-7 configuration (STT-like 4-D stream,
win=2000) once per backend — grid and kdtree — and reports average
per-window response time plus the per-window cluster counts, which must
be identical across backends (the parity suite checks object-level
equality; this bench re-checks it at workload scale while timing the
search layer, the dominant insertion cost per Section 5.3). The
candidate-set table reports how many candidate rows each backend hands
to distance refinement per probe. The walk-probe gate counts (never
times) what the grid's neighbour-cell discovery costs on the same
workload: dict probes per walk against what is occupied.

The clustered 8-D and 16-D cases are why two backends exist: the grid
wins every 4-D Figure-7 case, the k-d tree wins both of these. Each is
C-SGS with θr = 2.0, θc = 5, win 2000, slide 500 over 10 windows; 80 %
of the points fall in 10 Gaussian clusters (σ 0.5), the rest are
uniform over the same box.
"""

from __future__ import annotations

import random
import time

from common import (
    SLIDES,
    STT_CASES,
    WIN,
    batches_over,
    emit_bench_record,
    report,
    stt_points,
)
from repro.core.csgs import CSGS
from repro.eval.harness import Table, fmt_seconds
from repro.index import available_backends, make_provider
from repro.streams.objects import StreamObject

MEASURE_WINDOWS = 4

#: (dims, θr, θc, slide, windows) of the clustered high-dimensional cases.
CLUSTERED_CASES = ((8, 2.0, 5, 500, 10), (16, 2.0, 5, 500, 10))
CLUSTERED_SPAN = 20.0

_cache = {}


def _measure_csgs(csgs, slide: int):
    """Run MEASURE_WINDOWS slides; return (avg window time, cluster
    counts, candidates-per-probe handed to refinement)."""
    points = stt_points(WIN + MEASURE_WINDOWS * slide, seed=0)
    window_times = []
    cluster_counts = []
    produced = 0
    for batch in batches_over(points, WIN, slide):
        start = time.perf_counter()
        output = csgs.process_batch(batch)
        window_times.append(time.perf_counter() - start)
        cluster_counts.append(len(output.clusters))
        produced += 1
        if produced >= MEASURE_WINDOWS:
            break
    stats = csgs.tracker.provider.stats
    per_probe = stats["candidates"] / max(1, stats["queries"])
    return (
        sum(window_times) / len(window_times),
        cluster_counts,
        per_probe,
    )


def _run_backend(backend: str, case, slide: int):
    key = (backend, case, slide)
    if key not in _cache:
        theta_range, theta_count = case
        csgs = CSGS(theta_range, theta_count, 4, backend=backend)
        _cache[key] = _measure_csgs(csgs, slide)
    return _cache[key]


def clustered_points(dims: int, count: int, seed: int = 0):
    """80 % of the points in 10 Gaussian clusters (σ 0.5), the rest
    uniform over the ``[0, CLUSTERED_SPAN]^dims`` box."""
    rng = random.Random(seed)
    centres = [
        [rng.uniform(0.0, CLUSTERED_SPAN) for _ in range(dims)]
        for _ in range(10)
    ]
    points = []
    for _ in range(count):
        if rng.random() < 0.8:
            centre = rng.choice(centres)
            points.append(tuple(rng.gauss(c, 0.5) for c in centre))
        else:
            points.append(
                tuple(rng.uniform(0.0, CLUSTERED_SPAN) for _ in range(dims))
            )
    return points


def _run_clustered(backend: str, case):
    """Whole-run seconds and per-window cluster counts of one clustered
    high-dimensional case."""
    key = (backend, case)
    if key not in _cache:
        dims, theta_range, theta_count, slide, windows = case
        points = clustered_points(dims, WIN + (windows - 1) * slide)
        csgs = CSGS(theta_range, theta_count, dims, backend=backend)
        counts = []
        start = time.perf_counter()
        for batch in batches_over(points, WIN, slide):
            counts.append(len(csgs.process_batch(batch).clusters))
            if len(counts) >= windows:
                break
        _cache[key] = (time.perf_counter() - start, counts)
    return _cache[key]


def test_index_backends_agree(benchmark):
    """All backends produce the same per-window cluster counts, on the
    4-D Figure-7 case and on the clustered 8-D and 16-D cases."""
    case, slide = STT_CASES[1], SLIDES[1]
    counts = {
        backend: _run_backend(backend, case, slide)[1]
        for backend in available_backends()
    }
    reference = counts["grid"]
    for backend, observed in counts.items():
        assert observed == reference, (
            f"{backend} cluster counts diverge: {observed} != {reference}"
        )
    for clustered in CLUSTERED_CASES:
        dims = clustered[0]
        grid_counts = _run_clustered("grid", clustered)[1]
        assert sum(grid_counts) > 0, f"no clusters at {dims}-D"
        for backend in available_backends():
            observed = _run_clustered(backend, clustered)[1]
            assert observed == grid_counts, (
                f"{backend} cluster counts diverge at {dims}-D: "
                f"{observed} != {grid_counts}"
            )
    benchmark.pedantic(
        lambda: _run_backend("grid", case, slide), rounds=1, iterations=1
    )


def test_index_backends_report(benchmark):
    """Print the backend comparison grid over the Figure-7 cases."""
    table = Table(
        "Index backends — C-SGS avg response time per window "
        "(Figure-7 workload, STT-like 4-D)",
        ["case (thr,thc)", "slide"]
        + list(available_backends())
        + ["clusters"],
    )
    for case in STT_CASES:
        slide = SLIDES[1]
        results = {
            backend: _run_backend(backend, case, slide)
            for backend in available_backends()
        }
        table.add_row(
            f"({case[0]}, {case[1]})",
            slide,
            *[fmt_seconds(results[b][0]) for b in available_backends()],
            results["grid"][1][-1],
        )
        for backend in available_backends():
            avg_time, _, per_probe = results[backend]
            emit_bench_record(
                "query",
                "index_backends",
                backend=backend,
                theta_range=case[0],
                theta_count=case[1],
                slide=slide,
                wall_time_s=round(avg_time, 6),
                candidates_examined=round(per_probe, 2),
            )
    report(table.render())
    clustered = Table(
        "Index backends — C-SGS seconds per run (clustered, θr 2.0, "
        "θc 5, win 2000, slide 500, 10 windows)",
        ["dims"] + list(available_backends()) + ["clusters"],
    )
    for case in CLUSTERED_CASES:
        results = {
            backend: _run_clustered(backend, case)
            for backend in available_backends()
        }
        clustered.add_row(
            case[0],
            *[fmt_seconds(results[b][0]) for b in available_backends()],
            sum(results["grid"][1]),
        )
        for backend, (seconds, counts) in results.items():
            emit_bench_record(
                "query",
                "index_backends_clustered",
                backend=backend,
                dimensions=case[0],
                theta_range=case[1],
                theta_count=case[2],
                slide=case[3],
                windows=case[4],
                wall_time_s=round(seconds, 6),
                clusters=sum(counts),
            )
    report(clustered.render())
    benchmark.pedantic(
        lambda: _run_backend("grid", STT_CASES[1], SLIDES[1]),
        rounds=1,
        iterations=1,
    )


def test_index_backends_candidate_sizes(benchmark):
    """Report candidate rows handed to refinement per probe, per backend
    (the quantity the sphere-pruned gathering exists to cut)."""
    table = Table(
        "Candidate-set sizes — candidates per probe handed to "
        "refinement (Figure-7 workload, STT-like 4-D)",
        ["case (thr,thc)", "slide"] + list(available_backends()),
    )
    slide = SLIDES[1]
    for case in STT_CASES:
        sizes = {
            backend: _run_backend(backend, case, slide)[2]
            for backend in available_backends()
        }
        table.add_row(
            f"({case[0]}, {case[1]})",
            slide,
            *[f"{sizes[b]:.1f}" for b in available_backends()],
        )
        for backend, size in sizes.items():
            assert size > 0, f"{backend} reported no candidates"
    report(table.render())
    benchmark.pedantic(
        lambda: _run_backend("grid", STT_CASES[1], SLIDES[1]),
        rounds=1,
        iterations=1,
    )


class _CountingNode(dict):
    """A node of the grid's coordinate trie that counts its probes."""

    probes = 0

    def get(self, key, default=None):
        _CountingNode.probes += 1
        return super().get(key, default)


def _counting(node, depth: int):
    if depth == 0:
        return node  # a bucket list
    return _CountingNode(
        (value, _counting(child, depth - 1)) for value, child in node.items()
    )


def test_index_backends_walk_probes_follow_occupancy(benchmark):
    """Counts only: on the Figure-7 4-D window a neighbour-cell walk
    probes ``2*reach + 1`` keys at the root and at every populated
    prefix within reach — nothing for a prefix no occupied cell has —
    where probing the whole offset cube cost 625 whatever was there."""
    theta_range, _ = STT_CASES[1]
    grid = make_provider("grid", theta_range, 4)
    for oid, coords in enumerate(stt_points(WIN, seed=0)):
        obj = StreamObject(oid, coords)
        obj.first_window, obj.last_window = 0, 1
        grid.insert(obj)
    reach = grid.reach
    per_node = 2 * reach + 1
    grid._trie = _counting(grid._trie, 4)
    bases = list(grid.occupied_cells())
    total = 0
    for base in bases:
        populated = {
            coord[:depth]
            for coord in bases
            for depth in range(1, 4)
            if all(abs(c - b) <= reach for c, b in zip(coord[:depth], base))
        }
        _CountingNode.probes = 0
        assert grid._reachable_buckets(base)  # at least the base itself
        assert _CountingNode.probes == per_node * (1 + len(populated)), (
            f"walk from {base}: {_CountingNode.probes} probes, "
            f"{len(populated)} populated prefixes in reach"
        )
        total += _CountingNode.probes
    mean = total / len(bases)
    report(
        f"grid walk on the Figure-7 4-D window: {len(bases)} occupied cells, "
        f"{mean:.1f} probes per walk (offset cube: {per_node ** 4})"
    )
    assert mean * 4 <= per_node ** 4
    benchmark.pedantic(
        lambda: [grid._reachable_buckets(base) for base in bases],
        rounds=1,
        iterations=1,
    )
