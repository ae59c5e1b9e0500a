"""``multiplex-k6`` — six registered queries multiplexed over one stream.

``MultiplexedMiningSystem`` with the ``bench_multiplex.py`` query set
(θr on the rungs 0.625 / 1.25 / 2.5, mixed θc), GMTI, win = 1000,
slide = 100, one query archiving. The only workload where
``multiplex.provider`` and ``multiplex.scheduler`` run: the range query
is shared 6:1 but career maintenance runs once per query, so this is
where a change to the sharing shows end to end — the two ``stream-*``
workloads bypass it entirely.

The stream is handed in slide by slide (closed loop, one thread); one
latency sample per slide = all six queries' outputs for that window.
Set-up is construction + registration until the first full window.
"""

from __future__ import annotations

import os
from itertools import islice
from time import perf_counter
from typing import Dict, List, Sequence

from repro.clustering.shared import SharedCSGS
from repro.config import ContinuousClusteringQuery
from repro.multiplex.provider import MultiResolutionProvider
from repro.streams.objects import StreamObject
from repro.streams.source import ListSource
from repro.streams.windows import CountBasedWindowSpec, Windower
from repro.system.framework import MultiplexedMiningSystem

from . import inputs, measure, verify
from .measure import PassResult
from .trace import Tracer

NAME = "multiplex-k6"

#: (θr, θc) per query — the k = 6 set of benchmarks/bench_multiplex.py.
QUERIES = ((1.25, 4), (2.5, 8), (0.625, 3), (1.25, 8), (2.5, 4), (0.625, 5))
#: The query whose outputs are archived (the Figure-7 parameters).
ARCHIVING = 1
WIN, SLIDE = 1000, 100
POINTS, SMOKE_POINTS = 4500, 1500
#: Windows of the prefix checked against independent pipelines.
PREFIX_WINDOWS = 10

#: ``{seed: digest}`` of the full-size run, pinned at the commit that
#: added the benchmark.
PINNED: Dict[int, str] = {
    0: "65cf747c6ea00f3ad590ab181cc6332b9f8978629af893abd4e63810fb9a76bf",
}


def _queries() -> List[ContinuousClusteringQuery]:
    return [
        ContinuousClusteringQuery.count_based(theta, count, 2, WIN, SLIDE)
        for theta, count in QUERIES
    ]


def _slides(points: Sequence[inputs.Point]):
    source = iter(ListSource(points))
    while True:
        chunk = list(islice(source, SLIDE))
        if not chunk:
            return
        yield chunk


def untraced_pass(points, keep_prefix: bool = False) -> PassResult:
    digest = verify.StreamDigest()
    intervals: List[float] = []
    prefix: Dict[tuple, bytes] = {}
    deliveries = [0]

    def sink(handle, output) -> None:
        deliveries[0] += 1

    def absorb(closed) -> None:
        for index, outputs in closed:
            for query_id in sorted(outputs):
                data = digest.update(outputs[query_id], tag=f"q{query_id}:")
                if keep_prefix and index < PREFIX_WINDOWS:
                    prefix[(index, query_id)] = data

    started = perf_counter()
    system = MultiplexedMiningSystem(2)
    handles = [
        system.register(query, sink=sink, archive=(i == ARCHIVING))
        for i, query in enumerate(_queries())
    ]
    constructed = perf_counter()
    try:
        for chunk in _slides(points):
            asked = perf_counter()
            closed = system.feed(chunk)
            answered = perf_counter()
            if closed:
                intervals.append(answered - asked)
            absorb(closed)
        asked = perf_counter()
        closed = system.flush()
        intervals.append(perf_counter() - asked)
        absorb(closed)
        stats = system.stats()
    finally:
        system.close()
    fill = WIN // SLIDE
    steady = intervals[fill:]
    return PassResult(
        setup_s=(constructed - started) + sum(intervals[:fill]),
        ops=SLIDE * len(steady),
        busy_parts=steady,
        latencies=steady,
        attempted=len(intervals),
        failed=0,
        digest=digest.hexdigest(),
        extra={
            "prefix": prefix,
            "query_ids": [handle.id for handle in handles],
            "deliveries": deliveries[0],
            "stats": stats,
        },
    )


def traced_pass(points, tracer: Tracer) -> dict:
    """The scheduler with a span per batch (the archiving sink is the
    harness's own, so archival is a child span), then the same batches
    replayed on a stand-alone provider with the same rungs acquired."""
    span = tracer.span
    digest = verify.StreamDigest()

    def absorb(closed) -> None:
        for _, outputs in closed:
            for query_id in sorted(outputs):
                digest.update(outputs[query_id], tag=f"q{query_id}:")

    started = perf_counter()
    system = MultiplexedMiningSystem(2)

    def archiving_sink(handle, output) -> None:
        tracer.count("multiplex.registry.deliveries")
        with span("archive.archiver.archive"):
            system.archiver.archive_output(output)

    def sink(handle, output) -> None:
        tracer.count("multiplex.registry.deliveries")

    for i, query in enumerate(_queries()):
        system.register(query, sink=archiving_sink if i == ARCHIVING else sink)
    wall = perf_counter() - started
    try:
        for chunk in _slides(points):
            batch_started = perf_counter()
            with span("multiplex.scheduler.batch"):
                closed = system.feed(chunk)
            wall += perf_counter() - batch_started
            absorb(closed)
        batch_started = perf_counter()
        with span("multiplex.scheduler.batch"):
            closed = system.flush()
        wall += perf_counter() - batch_started
        absorb(closed)
        stats = system.stats()
        archived = system.archived_count
    finally:
        system.close()

    # The shared pass on its own: same objects, same stamps, same rungs.
    provider = MultiResolutionProvider(QUERIES[0][0], 2)
    for theta, _ in QUERIES:
        provider.acquire(provider.snap_level(theta))
    lifespan = WIN // SLIDE
    expiry: Dict[int, List[StreamObject]] = {}
    for index, chunk in enumerate(_slides(points)):
        for obj in chunk:
            obj.first_window = index
            obj.last_window = index + lifespan - 1
        with span("multiplex.provider.pass"):
            for obj in expiry.pop(index - 1, ()):
                provider.remove(obj)
            candidates = provider.batch_neighborhoods(chunk)
        expiry[index + lifespan - 1] = chunk
        tracer.count(
            "multiplex.provider.candidates",
            sum(len(neighbors) for neighbors, _ in candidates),
        )
    return {
        "digest": digest.hexdigest(),
        "wall_s": wall,
        "stats": stats,
        "archived": archived,
        "replay_stats": dict(provider.stats),
    }


def _independent_prefix(points, query_ids) -> Dict[tuple, bytes]:
    """The first windows of every query from a dedicated pipeline."""
    expected: Dict[tuple, bytes] = {}
    prefix_points = points[: PREFIX_WINDOWS * SLIDE]
    for query_id, (theta, count) in zip(query_ids, QUERIES):
        pipeline = SharedCSGS(theta, [count], 2)
        batches = Windower(CountBasedWindowSpec(WIN, SLIDE)).batches(
            ListSource(prefix_points)
        )
        for batch in batches:
            output = pipeline.process_batch(batch)[count]
            expected[(batch.index, query_id)] = verify.window_bytes(output)
    return expected


def run(args) -> dict:
    n = SMOKE_POINTS if args.smoke else POINTS
    checks = verify.Checks()
    points = inputs.thinned_stream("gmti", n, args.seed)
    with measure.scratch(NAME):
        if not args.trace:
            passes = measure.run_passes(
                lambda i: untraced_pass(points, keep_prefix=(i == 0)),
                args.seconds,
                args.smoke,
            )
            metrics = measure.end_to_end(
                passes, measure.peak_rss_mb(), args.smoke
            )
        else:
            passes, traces, traced, tracer = measure.trace_replays(
                f"{NAME}-seed{args.seed}",
                lambda i: untraced_pass(points, keep_prefix=(i == 0)),
                lambda i, tracer: traced_pass(points, tracer),
            )
            checks.record(
                "traced passes reproduce the untraced digest",
                all(t["digest"] == passes[0].digest for t in traces),
            )
            metrics = _layer_metrics(tracer, traced, passes, n, checks)
            if args.out:
                tracer.dump(os.path.join(args.out, f"{NAME}.trace.json"))
    first = passes[0]
    if not args.smoke and args.seed in PINNED:
        checks.equal(
            "digest equals the pinned digest", first.digest, PINNED[args.seed]
        )
    checks.record(
        f"first {PREFIX_WINDOWS} windows agree with independent SharedCSGS runs",
        first.extra["prefix"]
        == _independent_prefix(points, first.extra["query_ids"]),
    )
    checks.equal(
        "every query received every window",
        first.extra["deliveries"],
        len(QUERIES) * (n // SLIDE),
    )
    return measure.outcome(checks, passes, metrics, points_per_pass=n)


def _layer_metrics(tracer, traced, references, n, checks) -> Dict[str, float]:
    shared = traced["stats"]["provider"]
    replay = traced["replay_stats"]
    checks.equal(
        "replayed provider ran the scheduler's range queries",
        (replay["range_queries"], replay["range_query_batches"]),
        (shared["range_queries"], shared["range_query_batches"]),
    )
    metrics = dict(tracer.layer_ms())
    # The replayed pass ran after the traced wall, not inside it.
    pass_ms = metrics["multiplex.provider.pass_ms"]
    covered_ms = sum(metrics.values()) - pass_ms
    metrics.update(tracer.counts)
    metrics.update(
        {
            "streams.windows.points": n,
            "streams.windows.windows": n // SLIDE,
            "archive.archiver.patterns": traced["archived"],
            "multiplex.scheduler.rest_ms": metrics["multiplex.scheduler.batch_ms"]
            - pass_ms,
            "multiplex.provider.range_queries": shared["range_queries"],
            "multiplex.provider.range_query_batches": shared[
                "range_query_batches"
            ],
            "multiplex.provider.gather_builds": shared["gather_builds"],
            "multiplex.scheduler.cohorts": len(traced["stats"]["cohorts"]),
            "multiplex.sharing_ratio": len(QUERIES) * n / shared["range_queries"],
        }
    )
    metrics.update(
        measure.trace_metrics(covered_ms, traced["wall_s"], references, checks)
    )
    return metrics
