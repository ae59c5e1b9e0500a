"""The single-query stream driver behind ``stream-gmti`` and
``stream-stt-sqlite``: as-fast-as-possible replay (closed loop, one
thread) of a count-based sliding-window query through
``StreamPatternMiningSystem.run_steps``.

One pass = a fresh system replaying the whole seeded stream. The first
``win / slide`` outputs are partial windows; **set-up** is construction
until the first *full* window is out, and the measured phase is the
steady state after it: one latency sample per window (slide handed in →
clusters + SGS emitted and archived), ``ops`` = points consumed.

The traced pass drives the same seam ``SharedCSGS.process_batch`` uses
— the provider, then a coordinator-fed ``CSGS``, then the archiver —
with a span around each call, and must reproduce the untraced digest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.archive.archiver import PatternArchiver
from repro.archive.pattern_base import PatternBase
from repro.clustering.cluster import core_signature
from repro.core.csgs import CSGS
from repro.eval.memory import csgs_state_bytes
from repro.index.provider import make_provider
from repro.streams.source import ListSource
from repro.streams.windows import CountBasedWindowSpec, Windower
from repro.system.framework import StreamPatternMiningSystem

from . import inputs, measure, verify
from .measure import PassResult
from .trace import Tracer


@dataclass(frozen=True)
class StreamConfig:
    name: str
    kind: str
    dimensions: int
    theta_range: float
    theta_count: int
    win: int
    slide: int
    #: Points per pass (a multiple of ``slide``) — full and smoke size.
    points: int
    smoke_points: int
    sqlite: bool
    #: ``{seed: digest}`` of the full-size stream, pinned at the commit
    #: that added the benchmark: a later commit that changes a single
    #: cluster membership or SGS cell fails the run.
    pinned: Dict[int, str]


def _store_spec(cfg: StreamConfig, workdir: str, tag: str) -> Optional[str]:
    return f"sqlite:{workdir}/{cfg.name}-{tag}.db" if cfg.sqlite else None


def _db_bytes(spec: Optional[str]) -> int:
    if spec is None:
        return 0
    path = spec.split(":", 1)[1]
    return sum(
        os.path.getsize(path + suffix)
        for suffix in ("", "-wal")
        if os.path.exists(path + suffix)
    )


def untraced_pass(
    cfg: StreamConfig,
    points: Sequence[inputs.Point],
    workdir: str,
    tag: str,
    sample_windows: Sequence[int] = (),
) -> PassResult:
    digest = verify.StreamDigest()
    intervals: List[float] = []
    signatures = {}
    store = _store_spec(cfg, workdir, tag)
    started = perf_counter()
    system = StreamPatternMiningSystem(
        cfg.theta_range,
        cfg.theta_count,
        cfg.dimensions,
        CountBasedWindowSpec(cfg.win, cfg.slide),
        store=store,
    )
    outputs = system.run_steps(ListSource(points))
    constructed = perf_counter()
    try:
        while True:
            asked = perf_counter()
            output = next(outputs, None)
            answered = perf_counter()
            if output is None:
                break
            intervals.append(answered - asked)
            # Untimed: the next interval starts after the hashing.
            digest.update(output)
            if output.window_index in sample_windows:
                signatures[output.window_index] = core_signature(
                    output.clusters
                )
        archived = system.archived_count
    finally:
        system.close()
    fill = cfg.win // cfg.slide
    steady = intervals[fill:]
    return PassResult(
        setup_s=(constructed - started) + sum(intervals[:fill]),
        ops=cfg.slide * len(steady),
        busy_parts=steady,
        latencies=steady,
        attempted=len(intervals),
        failed=0,
        digest=digest.hexdigest(),
        extra={
            "signatures": signatures,
            "archived": archived,
            "db_bytes": _db_bytes(store),
        },
    )


class _TimedBase:
    """The archiver-facing ``add`` surface of a Pattern Base with a span
    around it, so that selection/resolution (archiver) and index +
    store writes (``PatternBase.add``) are told apart."""

    def __init__(self, base: PatternBase, tracer: Tracer):
        self._base, self._tracer = base, tracer

    def add(self, sgs, full_size):
        with self._tracer.span("archive.store.ingest"):
            return self._base.add(sgs, full_size)


def traced_pass(
    cfg: StreamConfig,
    points: Sequence[inputs.Point],
    workdir: str,
    tag: str,
    tracer: Tracer,
) -> Dict[str, float]:
    """Replay the stream layer by layer; returns the digest, the wall
    time and the state-size peak (spans and counts go to ``tracer``)."""
    span, count = tracer.span, tracer.count
    digest = verify.StreamDigest()
    store = _store_spec(cfg, workdir, tag)
    started = perf_counter()
    provider = make_provider("grid", cfg.theta_range, cfg.dimensions)
    csgs = CSGS(
        cfg.theta_range,
        cfg.theta_count,
        cfg.dimensions,
        provider=provider,
        manage_grid=False,
    )
    base = PatternBase(store=store)
    archiver = PatternArchiver(_TimedBase(base, tracer))
    batches = Windower(CountBasedWindowSpec(cfg.win, cfg.slide)).batches(
        ListSource(points)
    )
    wall = perf_counter() - started
    expiry: Dict[int, list] = {}
    purged = 0
    state_peak = 0
    try:
        while True:
            window_started = perf_counter()
            with span("window"):
                with span("streams.windows.batch"):
                    batch = next(batches, None)
                if batch is None:
                    break
                objects = batch.new_objects
                with span("index.purge"):
                    for window in range(purged, batch.index):
                        for obj in expiry.pop(window, ()):
                            provider.remove(obj)
                    purged = batch.index
                with span("core.csgs.begin"):
                    csgs.begin_window(batch.index)
                with span("index.insert"):
                    for obj in objects:
                        provider.insert(obj)
                        expiry.setdefault(obj.last_window, []).append(obj)
                with span("index.range_query"):
                    neighbor_lists = provider.range_query_many(
                        [(obj.coords, obj.oid) for obj in objects]
                    )
                with span("index.credit"):
                    # batched_neighborhoods' intra-batch crediting: a
                    # pair is credited when its later half arrives.
                    pending = {obj.oid for obj in objects}
                    known_lists = []
                    for obj, neighbors in zip(objects, neighbor_lists):
                        pending.discard(obj.oid)
                        known_lists.append(
                            [nb for nb in neighbors if nb.oid not in pending]
                        )
                with span("core.lifespan.ingest"):
                    for obj, known in zip(objects, known_lists):
                        csgs.ingest(obj, known)
                with span("core.csgs.emit"):
                    output = csgs.emit(batch.index)
                with span("archive.archiver.archive"):
                    archiver.archive_output(output)
            wall += perf_counter() - window_started
            count("streams.windows.points", len(objects))
            count("streams.windows.windows")
            count("index.range_queries", len(objects))
            count("index.neighbors", sum(map(len, neighbor_lists)))
            count("core.lifespan.neighbor_updates", sum(map(len, known_lists)))
            count("core.csgs.clusters", len(output.clusters))
            count("core.csgs.cells", sum(len(sgs) for sgs in output.summaries))
            if batch.index % 10 == 0:
                state_peak = max(state_peak, csgs_state_bytes(csgs))
            digest.update(output)
        count("index.candidates", provider.stats["candidates"])
        count("archive.archiver.patterns", len(base))
    finally:
        base.close()
    return {
        "digest": digest.hexdigest(),
        "wall_s": wall,
        "state_bytes_peak": state_peak,
        "db_bytes": _db_bytes(store),
    }


def run(cfg: StreamConfig, args) -> dict:
    n = cfg.smoke_points if args.smoke else cfg.points
    checks = verify.Checks()
    with measure.scratch(cfg.name) as workdir:
        points = inputs.thinned_stream(cfg.kind, n, args.seed)
        windows = n // cfg.slide
        fill = cfg.win // cfg.slide
        sample_windows = sorted({fill - 1, (fill + windows) // 2, windows - 1})

        if not args.trace:
            passes = measure.run_passes(
                lambda i: untraced_pass(
                    cfg, points, workdir, f"p{i}", sample_windows if i == 0 else ()
                ),
                args.seconds,
                args.smoke,
            )
            metrics = measure.end_to_end(
                passes, measure.peak_rss_mb(), args.smoke
            )
        else:
            passes, traces, traced, tracer = measure.trace_replays(
                f"{cfg.name}-seed{args.seed}",
                lambda i: untraced_pass(
                    cfg, points, workdir, f"ref{i}",
                    sample_windows if i == 0 else (),
                ),
                lambda i, tracer: traced_pass(
                    cfg, points, workdir, f"traced{i}", tracer
                ),
            )
            checks.record(
                "traced passes reproduce the untraced digest",
                all(t["digest"] == passes[0].digest for t in traces),
            )
            metrics = _layer_metrics(tracer, traced, passes, checks)
            if args.out:
                tracer.dump(os.path.join(args.out, f"{cfg.name}.trace.json"))

        first = passes[0]
        if not args.smoke and args.seed in cfg.pinned:
            checks.equal(
                "digest equals the pinned digest",
                first.digest,
                cfg.pinned[args.seed],
            )
        for window, signature in first.extra["signatures"].items():
            checks.record(
                f"window {window} agrees with DBSCAN from scratch",
                signature
                == verify.dbscan_core_signature(
                    points,
                    window,
                    cfg.win,
                    cfg.slide,
                    cfg.theta_range,
                    cfg.theta_count,
                ),
            )
    return measure.outcome(checks, passes, metrics, points_per_pass=n)


def _layer_metrics(
    tracer: Tracer, traced: dict, references: Sequence[PassResult],
    checks: verify.Checks,
) -> Dict[str, float]:
    metrics = dict(tracer.layer_ms())
    del metrics["window_ms"]  # the root: what no layer span covers
    covered_ms = sum(metrics.values())
    metrics.update(tracer.counts)
    patterns = metrics["archive.archiver.patterns"]
    checks.equal(
        "traced pass archives as many patterns",
        int(patterns),
        references[0].extra["archived"],
    )
    metrics.update(
        {
            "index.useful_ratio": metrics["index.neighbors"]
            / max(1.0, metrics["index.candidates"]),
            "core.csgs.state_bytes_peak": traced["state_bytes_peak"],
            "archive.store.db_bytes": traced["db_bytes"],
            "archive.store.bytes_per_pattern": traced["db_bytes"]
            / max(1.0, patterns),
        }
    )
    metrics.update(
        measure.trace_metrics(covered_ms, traced["wall_s"], references, checks)
    )
    return metrics
