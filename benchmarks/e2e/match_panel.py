"""``match-panel`` — a fixed query panel served in process.

Cold-open a pre-built SQLite archive (``sqlite:PATH?cache=64``; ~140
patterns, so the archive is larger than the LRU) and serve the seeded
panel through ``MatchEngine.match``: position-insensitive queries at
threshold 0.06 (half ``coarse_level=0``, half ``coarse_level=1`` → the
inverted screen) and position-sensitive ``coarse_level=1`` queries
(lazy-ladder screen, half with a ``window_range``). Alignment search
dominates; the position-sensitive class uses the cell match with no
shift search and the ladder instead of postings, so a kernel that
speeds one path and slows the other shows. No stream code runs in the
measured phase (the archive is built untimed, before it).

One pass = cold open (the set-up sample) + the whole panel on a fresh
copy of the archive file. The headline latency class is the
position-insensitive match; ``ops_per_s`` counts both classes.
"""

from __future__ import annotations

import os
import shutil
import statistics
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.archive.pattern_base import PatternBase
from repro.core.features import ClusterFeatures
from repro.core.multires import coarsen_sgs
from repro.matching.alignment import anytime_alignment_search
from repro.matching.cell_match import cell_level_distance
from repro.matching.metric import cluster_feature_distance
from repro.retrieval import planner
from repro.retrieval.engine import MatchEngine
from repro.retrieval.inverted import InvertedScreen, canonical_origin
from repro.retrieval.queries import MatchQuery

from . import inputs, measure, verify
from .inputs import PI, PS
from .measure import PassResult
from .trace import Tracer

NAME = "match-panel"

ARCHIVE_POINTS, HELD_POINTS = 15000, 3000
N_PI, N_PS = 64, 192
SMOKE = dict(archive_points=4000, held_points=2500, n_pi=8, n_ps=24)
#: The store's LRU, smaller than the archive on purpose.
CACHE = 64
#: Extra cold opens timed before the passes, for the set-up median.
EXTRA_OPENS = 4
#: Queries per class checked against the exhaustive scan.
ORACLE_SAMPLES = {PI: 4, PS: 8}

#: The EngineStats counters the staged replay must reproduce.
COUNTERS = (
    "gathered", "screened", "feature_filtered", "coarse_evaluated",
    "coarse_rejected", "refined", "matches",
)


def copy_archive(source: str, target: str) -> str:
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(source + suffix):
            shutil.copyfile(source + suffix, target + suffix)
    return target


def cold_open(db_path: str) -> Tuple[PatternBase, MatchEngine, float]:
    started = perf_counter()
    base = PatternBase(store=f"sqlite:{db_path}?cache={CACHE}")
    engine = MatchEngine(base)
    return base, engine, perf_counter() - started


def untraced_pass(panel: inputs.Panel, workdir: str, tag: str) -> PassResult:
    db_path = copy_archive(panel.db_path, os.path.join(workdir, f"{tag}.db"))
    base, engine, setup_s = cold_open(db_path)
    latencies: Dict[str, List[float]] = {PI: [], PS: []}
    every: List[float] = []
    answers, counters = [], []
    try:
        for kind, i in panel.ops:
            query = panel.queries[kind][i]
            asked = perf_counter()
            results, stats = engine.match(query)
            every.append(perf_counter() - asked)
            latencies[kind].append(every[-1])
            answers.append(verify.answer_of(results))
            counters.append(tuple(getattr(stats, name) for name in COUNTERS))
        store_stats = dict(base.store.stats)
    finally:
        base.close()
    return PassResult(
        setup_s=setup_s,
        ops=len(panel.ops),
        busy_parts=every,
        latencies=latencies[PI],
        attempted=len(panel.ops),
        failed=0,
        digest=verify.answers_digest(answers),
        extra={
            "answers": answers,
            "counters": counters,
            "ps_latencies": latencies[PS],
            "store_stats": store_stats,
        },
    )


# ----------------------------------------------------------------------
# The staged replay (traced pass)
# ----------------------------------------------------------------------


def inverted_screen_for(
    engine: MatchEngine, base, query: MatchQuery
) -> Optional[InvertedScreen]:
    """The conditions under which ``MatchEngine`` screens through the
    base's inverted index, from its public parts."""
    if (
        not engine.use_inverted
        or query.coarse_level <= 0
        or query.metric.position_sensitive
    ):
        return None
    index = base.inverted_index()
    if (
        index is None
        or not index.covers(query.coarse_level)
        or index.factor != engine.ladder_factor
    ):
        return None
    return InvertedScreen(
        index,
        query.coarse_level,
        query.sgs,
        query.threshold + engine.coarse_margin,
        engine.min_coarse_cells,
    )


def staged_match(engine: MatchEngine, base, query: MatchQuery, tracer: Tracer):
    """One query, stage by stage with a span around each call — the
    same calls in the same per-pattern order as ``MatchEngine.match``
    (only the cluster-feature filter is hoisted: it touches no summary
    and no cache). Returns ``(answer, counters)``."""
    span = tracer.span
    spec, threshold, level = query.metric, query.threshold, query.coarse_level
    with span("retrieval.engine.match"):
        features = ClusterFeatures.from_sgs(query.sgs)
        mbr = query.sgs.mbr()
        with span("retrieval.inverted.screen"):
            screen = inverted_screen_for(engine, base, query)
        with span("retrieval.planner.plan"):
            plan = planner.plan_query(
                base, query, features, mbr, inverted=screen is not None
            )
        if plan.entry == planner.ENTRY_INVERTED:
            with span("retrieval.inverted.screen"):
                candidates = screen.survivors(base)
        else:
            with span("retrieval.planner.gather"):
                candidates = planner.gather(base, plan)
        with span("retrieval.planner.screen"):
            screened = planner.screen(
                candidates, query, mbr, lows=plan.lows, highs=plan.highs
            )
        with span("matching.metric.feature"):
            passed = [
                pattern
                for pattern in screened
                if cluster_feature_distance(
                    features, pattern.features, spec, mbr, pattern.mbr
                )
                <= threshold
            ]
        canonical = not spec.position_sensitive
        use_ladder = level > 0 and screen is None
        if use_ladder:
            with span("retrieval.engine.ladder"):
                coarse_query = (
                    canonical_origin(query.sgs) if canonical else query.sgs
                )
                for _ in range(level):
                    coarse_query = coarsen_sgs(coarse_query, engine.ladder_factor)
        evaluated = rejected = refined = 0
        answer = []
        for pattern in passed:
            if screen is not None:
                with span("retrieval.inverted.screen"):
                    admitted = screen.admits(pattern.pattern_id)
                if not admitted:
                    continue
            elif use_ladder:
                with span("archive.store.hydrate"):
                    pattern.sgs
                with span("retrieval.engine.ladder"):
                    coarse_pattern = engine.pattern_at_level(
                        pattern, level, canonical=canonical
                    )
                    reject = False
                    if (
                        len(coarse_query) >= engine.min_coarse_cells
                        and len(coarse_pattern) >= engine.min_coarse_cells
                    ):
                        evaluated += 1
                        if spec.position_sensitive:
                            coarse = cell_level_distance(
                                coarse_query, coarse_pattern, spec, None
                            )
                        else:
                            coarse = anytime_alignment_search(
                                coarse_query,
                                coarse_pattern,
                                spec,
                                max_expansions=engine.coarse_expansions,
                            ).distance
                        reject = coarse > threshold + engine.coarse_margin
                if reject:
                    rejected += 1
                    continue
            with span("archive.store.hydrate"):
                stored = pattern.sgs
            refined += 1
            if spec.position_sensitive:
                with span("matching.cell_match.distance"):
                    distance = cell_level_distance(query.sgs, stored, spec, None)
                alignment = (0,) * query.sgs.dimensions
            else:
                with span("matching.alignment.align"):
                    search = anytime_alignment_search(
                        query.sgs,
                        stored,
                        spec,
                        max_expansions=engine.max_alignment_expansions,
                    )
                distance, alignment = search.distance, tuple(search.alignment)
            if distance <= threshold:
                answer.append((pattern.pattern_id, distance, alignment))
        if screen is not None:
            evaluated, rejected = screen.evaluated, screen.rejected
        answer.sort(key=lambda item: (item[1], item[0]))
        matches = len(answer)
        if query.top_k is not None:
            answer = answer[: query.top_k]
    coarse = (
        "retrieval.inverted." if screen is not None else "retrieval.engine.ladder_"
    )
    tracer.count("retrieval.planner.gathered", len(candidates))
    tracer.count("retrieval.planner.screened", len(screened))
    tracer.count("matching.metric.feature_passed", len(passed))
    tracer.count(coarse + "evaluated", evaluated)
    tracer.count(coarse + "rejected", rejected)
    tracer.count("matching.alignment.refined", refined)
    tracer.count("matching.alignment.matches", matches)
    counters = (
        len(candidates), len(screened), len(passed), evaluated, rejected,
        refined, matches,
    )
    return answer, counters


def traced_pass(
    panel: inputs.Panel, workdir: str, tag: str, tracer: Tracer
) -> dict:
    db_path = copy_archive(panel.db_path, os.path.join(workdir, f"{tag}.db"))
    with tracer.span("archive.store.open"):
        base, engine, open_s = cold_open(db_path)
    answers, counters = [], []
    wall = open_s
    try:
        for kind, i in panel.ops:
            asked = perf_counter()
            answer, counted = staged_match(
                engine, base, panel.queries[kind][i], tracer
            )
            wall += perf_counter() - asked
            answers.append(answer)
            counters.append(counted)
    finally:
        base.close()
    return {"answers": answers, "counters": counters, "wall_s": wall}


# ----------------------------------------------------------------------


def check_against_exhaustive(panel, passes, checks: verify.Checks) -> None:
    """Sampled answers of the first pass against the scan of every
    pattern (a fresh, untimed open of the archive)."""
    base = PatternBase(store=f"sqlite:{panel.db_path}")
    try:
        patterns = list(base.all_patterns())
        seen = {PI: 0, PS: 0}
        agree = True
        for (kind, i), answer in zip(panel.ops, passes[0].extra["answers"]):
            if seen[kind] >= ORACLE_SAMPLES[kind]:
                continue
            seen[kind] += 1
            agree = agree and answer == verify.exhaustive_match(
                patterns, panel.queries[kind][i]
            )
        checks.record(
            f"{sum(seen.values())} sampled answers equal the exhaustive scan",
            agree,
        )
    finally:
        base.close()


def run(args) -> dict:
    checks = verify.Checks()
    sizes = SMOKE if args.smoke else dict(
        archive_points=ARCHIVE_POINTS, held_points=HELD_POINTS,
        n_pi=N_PI, n_ps=N_PS,
    )
    with measure.scratch(NAME) as workdir:
        panel = inputs.build_panel(
            args.seed, os.path.join(workdir, "archive.db"), n_ingest=0, **sizes
        )
        if not args.trace:
            extra_setups = []
            for _ in range(EXTRA_OPENS):
                base, _, seconds = cold_open(panel.db_path)
                base.close()
                extra_setups.append(seconds)
            passes = measure.run_passes(
                lambda i: untraced_pass(panel, workdir, f"p{i}"),
                args.seconds,
                args.smoke,
            )
            metrics = measure.end_to_end(
                passes, measure.peak_rss_mb(), args.smoke, extra_setups
            )
        else:
            passes, traces, traced, tracer = measure.trace_replays(
                f"{NAME}-seed{args.seed}",
                lambda i: untraced_pass(panel, workdir, f"ref{i}"),
                lambda i, tracer: traced_pass(
                    panel, workdir, f"traced{i}", tracer
                ),
            )
            checks.record(
                "staged replays reproduce engine.match's answers",
                all(
                    verify.answers_digest(t["answers"]) == passes[0].digest
                    for t in traces
                ),
            )
            checks.record(
                "staged replays reproduce EngineStats",
                all(t["counters"] == passes[0].extra["counters"] for t in traces),
            )
            metrics = _layer_metrics(tracer, traced, passes, panel, checks)
            if args.out:
                tracer.dump(os.path.join(args.out, f"{NAME}.trace.json"))
        check_against_exhaustive(panel, passes, checks)
    return measure.outcome(
        checks, passes, metrics,
        archived_patterns=panel.patterns, ops_per_pass=len(panel.ops),
    )


def _layer_metrics(tracer, traced, references, panel, checks) -> Dict[str, float]:
    checks.no_stream_spans(tracer.names())
    metrics = dict(tracer.layer_ms())
    # The root span of a query: its self time is what the staged
    # replay could not name (loop, sort, result building).
    unattributed_ms = metrics.pop("retrieval.engine.match_ms")
    covered_ms = sum(metrics.values())
    metrics.update(tracer.counts)
    store = references[0].extra["store_stats"]
    db_bytes = os.path.getsize(panel.db_path)
    metrics.update(
        {
            "retrieval.engine.unattributed_ms": unattributed_ms,
            "archive.archiver.patterns": panel.patterns,
            "archive.store.db_bytes": db_bytes,
            "archive.store.bytes_per_pattern": db_bytes / panel.patterns,
            # Store counters of a real engine.match pass, not the replay.
            "archive.store.hydrations": store["hydrations"],
            "archive.store.cache_hits": store["cache_hits"],
            "archive.store.evictions": store["evictions"],
            "matching.alignment.useful_ratio": metrics["matching.alignment.matches"]
            / max(1.0, metrics["matching.alignment.refined"]),
            "ops.ps_match_p50_ms": statistics.median(
                references[0].extra["ps_latencies"]
            )
            * 1e3,
        }
    )
    metrics.update(
        measure.trace_metrics(covered_ms, traced["wall_s"], references, checks)
    )
    return metrics
