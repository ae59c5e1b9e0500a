"""Command-line interface: run queries, archive patterns, match clusters.

Subcommands:

* ``generate`` — write a synthetic stream (gmti / stt / blobs) to CSV;
* ``run`` — execute a Continuous Clustering Query (textual template or
  flags) over a CSV stream, print per-window cluster digests, and
  optionally persist the resulting Pattern Base; with ``--queries FILE``
  (one DETECT template per line) several queries multiplex over one
  stream pass, sharing a multi-resolution substrate;
* ``multiplex`` — run a queries file multiplexed and report the sharing
  structure: θr rung placement, cohorts, one-pass substrate counters;
* ``match`` — load a persisted Pattern Base and run a Cluster Matching
  Query for a pattern id or an SGS JSON file on one in-process
  :class:`~repro.retrieval.engine.MatchEngine`;
* ``serve`` — keep a persisted Pattern Base resident behind a JSON-over-
  HTTP service (``/ingest``, ``/match``, ``/match_many``, ``/stats``,
  ``/healthz``). It is the only command that shards the archive
  (``--shards`` / ``--shard-key``) and picks a deployment mode —
  in-process serial or process-per-shard workers (``--mode``,
  ``--replicas``);
* ``show`` — render an archived pattern as ASCII art (2-D only).

Examples::

    python -m repro.cli generate --kind gmti --count 20000 --out stream.csv
    python -m repro.cli run --input stream.csv --theta-range 2.5 \
        --theta-count 8 --win 2000 --slide 500 --archive history.sgsa
    python -m repro.cli run --input stream.csv --queries queries.txt
    python -m repro.cli multiplex --input stream.csv --queries queries.txt
    python -m repro.cli match --archive history.sgsa --pattern 12 \
        --threshold 0.25 --top 5
    python -m repro.cli serve --archive history.sgsa --shards 4 \
        --mode process --port 8765
    python -m repro.cli run --input stream.csv --theta-range 2.5 \
        --theta-count 8 --win 2000 --slide 500 --store sqlite:history.db
    python -m repro.cli serve --store sqlite:history.db --port 8765
    python -m repro.cli show --archive history.sgsa --pattern 12

``--store sqlite:PATH`` swaps the monolithic dump for the disk-backed
pattern store of :mod:`repro.archive.store`: ``run`` commits each
pattern as it archives (crash-safe), and ``match`` / ``serve`` open
the store directly so cold start skips the full dump load.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Iterator, List, Optional, Sequence

from repro.archive.persistence import dump_pattern_base, load_pattern_base
from repro.core.serialize import sgs_from_json, sgs_to_json
from repro.data.gmti import GMTIStream
from repro.data.stt import STTStream
from repro.data.synthetic import DriftingBlobStream
from repro.index.provider import available_backends
from repro.matching.metric import DistanceMetricSpec
from repro.retrieval import MatchEngine, MatchQuery, PARTITION_KEYS
from repro.serving import MODES
from repro.streams.objects import StreamObject
from repro.streams.windows import CountBasedWindowSpec, TimeBasedWindowSpec
from repro.system.framework import (
    MultiplexedMiningSystem,
    StreamPatternMiningSystem,
)


def _write_csv(path: str, rows: Iterator[Sequence[float]]) -> int:
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        for row in rows:
            writer.writerow([f"{value:.6f}" for value in row])
            count += 1
    return count


def _read_csv_objects(path: str, timestamp_column: Optional[int]) -> Iterator[StreamObject]:
    with open(path, newline="") as handle:
        for i, row in enumerate(csv.reader(handle)):
            if not row:
                continue
            values = [float(v) for v in row]
            if timestamp_column is not None:
                timestamp = values.pop(timestamp_column)
            else:
                timestamp = None
            yield StreamObject(i, tuple(values), timestamp)


def _load_queries(path: str, dimensions: int) -> list:
    """Parse a queries file: one DETECT template per line, blank lines
    and ``#`` comments skipped."""
    from repro.config import ContinuousClusteringQuery
    from repro.query.parser import QueryParseError, parse_query

    queries = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                query = parse_query(text, dimensions=dimensions)
            except QueryParseError as error:
                raise SystemExit(f"{path}:{lineno}: {error}")
            if not isinstance(query, ContinuousClusteringQuery):
                raise SystemExit(
                    f"{path}:{lineno}: only DETECT (continuous "
                    "clustering) queries can be multiplexed"
                )
            queries.append(query)
    if not queries:
        raise SystemExit(f"{path}: no queries found")
    return queries


def _print_sink(handle, output):
    digest = ", ".join(
        f"#{c.cluster_id}:{c.size}obj/{len(s)}cells"
        for c, s in zip(output.clusters, output.summaries)
    )
    print(
        f"q{handle.id} window {output.window_index}: "
        f"{digest or 'no clusters'}"
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "gmti":
        rows = GMTIStream(seed=args.seed).points(args.count)
    elif args.kind == "stt":
        rows = STTStream(total_records=args.count, seed=args.seed).points(
            args.count
        )
    else:
        rows = DriftingBlobStream(seed=args.seed).points(args.count)
    written = _write_csv(args.out, rows)
    print(f"wrote {written} records to {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    objects = list(_read_csv_objects(args.input, args.timestamp_column))
    if not objects:
        print("input stream is empty", file=sys.stderr)
        return 1
    dimensions = objects[0].dimensions
    if args.queries:
        return _run_multiplexed(args, objects, dimensions)
    missing = [
        flag
        for flag, value in (
            ("--theta-range", args.theta_range),
            ("--theta-count", args.theta_count),
            ("--win", args.win),
            ("--slide", args.slide),
        )
        if value is None
    ]
    if missing:
        print(
            f"run needs {', '.join(missing)} (or a --queries file)",
            file=sys.stderr,
        )
        return 1
    try:
        if args.time_based:
            window = TimeBasedWindowSpec(args.win, args.slide)
        else:
            window = CountBasedWindowSpec(args.win, args.slide)
        system = StreamPatternMiningSystem(
            args.theta_range, args.theta_count, dimensions, window,
            archive_level=args.level,
            index_backend=args.index_backend,
            match_inverted_levels=(
                _parse_inverted_levels(args.inverted_levels) or None
            ),
            store=args.store,
        )
    except ValueError as error:
        print(f"invalid query: {error}", file=sys.stderr)
        return 1
    try:
        for output in system.run_steps(
            objects, max_windows=args.max_windows
        ):
            digest = ", ".join(
                f"#{c.cluster_id}:{c.size}obj/{len(s)}cells"
                for c, s in zip(output.clusters, output.summaries)
            )
            print(f"window {output.window_index}: {digest or 'no clusters'}")
        print(f"archived {system.archived_count} patterns")
        if args.store:
            print(f"pattern base durable in {args.store}")
        if args.archive:
            written = dump_pattern_base(system.pattern_base, args.archive)
            print(
                f"persisted pattern base to {args.archive} "
                f"({written} bytes)"
            )
    finally:
        system.close()
    return 0


def _run_multiplexed(
    args: argparse.Namespace, objects: list, dimensions: int
) -> int:
    queries = _load_queries(args.queries, dimensions)
    system = MultiplexedMiningSystem(
        dimensions,
        archive_level=args.level,
        match_inverted_levels=(
            _parse_inverted_levels(args.inverted_levels) or None
        ),
        store=args.store,
    )
    archive = bool(args.archive or args.store)
    try:
        for query in queries:
            handle = system.register(query, sink=_print_sink, archive=archive)
            print(
                f"registered q{handle.id}: theta_range="
                f"{query.theta_range} theta_count={query.theta_count} "
                f"win={query.window.win} slide={query.window.slide}"
            )
        system.run(objects)
        for entry in system.registry.describe():
            print(
                f"q{entry['id']}: {entry['windows']} windows, "
                f"{entry['clusters']} clusters "
                f"({'dedicated' if entry['dedicated'] else 'rung ' + str(entry['rung'])})"
            )
        print(f"archived {system.archived_count} patterns")
        if args.store:
            print(f"pattern base durable in {args.store}")
        if args.archive:
            written = dump_pattern_base(system.pattern_base, args.archive)
            print(
                f"persisted pattern base to {args.archive} "
                f"({written} bytes)"
            )
    finally:
        system.close()
    return 0


def _cmd_multiplex(args: argparse.Namespace) -> int:
    """Run a queries file multiplexed and report the sharing structure."""
    from repro.multiplex import SlideScheduler

    objects = list(_read_csv_objects(args.input, args.timestamp_column))
    if not objects:
        print("input stream is empty", file=sys.stderr)
        return 1
    dimensions = objects[0].dimensions
    queries = _load_queries(args.queries, dimensions)

    scheduler = SlideScheduler(dimensions, factor=args.factor)
    for query in queries:
        scheduler.register(query)
    scheduler.run(objects)
    stats = scheduler.stats()
    print(f"{len(queries)} queries over {len(objects)} objects")
    for entry in stats["queries"]:
        placement = (
            "dedicated"
            if entry["dedicated"]
            else f"rung {entry['rung']}"
        )
        print(
            f"  q{entry['id']}: theta_range={entry['theta_range']} "
            f"theta_count={entry['theta_count']} win={entry['win']} "
            f"-> {placement}, {entry['windows']} windows, "
            f"{entry['clusters']} clusters"
        )
    for rung in stats["rungs"]:
        top = " (top: gather radius)" if rung["top"] else ""
        print(
            f"  rung {rung['level']}: theta_range="
            f"{rung['theta_range']} serving {rung['queries']} "
            f"queries{top}"
        )
    for cohort in stats["cohorts"]:
        nesting = (
            f", {cohort['cells']} cells in {cohort['top_cells']} "
            "top-rung cells"
            if "top_cells" in cohort
            else ""
        )
        print(
            f"  cohort[{cohort['mode']}] theta_range="
            f"{cohort['theta_range']} lifespan={cohort['lifespan']}: "
            f"{cohort['queries']} queries{nesting}"
        )
    provider = stats["provider"]
    if provider is not None:
        print(
            f"  shared substrate: {provider['range_query_batches']} "
            f"batched passes, {provider['range_queries']} range "
            f"queries, {provider['gather_builds']} gather builds"
        )
    if stats["dedicated_range_queries"]:
        print(
            f"  dedicated fallback: "
            f"{stats['dedicated_range_queries']} range queries"
        )
    return 0


def _metric_from_args(args: argparse.Namespace) -> DistanceMetricSpec:
    return DistanceMetricSpec(position_sensitive=args.position_sensitive)


def _parse_window_span(text: Optional[str]) -> Optional[tuple]:
    if text is None:
        return None
    try:
        lo, _, hi = text.partition(":")
        return (int(lo), int(hi))
    except ValueError:
        raise SystemExit(f"--windows expects LO:HI, got {text!r}")


def _parse_inverted_levels(text: Optional[str]) -> tuple:
    if not text:
        return ()
    try:
        levels = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise SystemExit(
            f"--inverted-levels expects comma-separated rungs, got {text!r}"
        )
    if any(level < 1 for level in levels):
        raise SystemExit("--inverted-levels rungs must be >= 1")
    return levels


def _open_base(args: argparse.Namespace):
    """The archive named by ``--archive`` / ``--store`` (either alone
    works; a dump file plus an *empty* store imports the dump into the
    store — the one-time migration path)."""
    from repro.archive.pattern_base import PatternBase

    if args.archive is None and args.store is None:
        raise SystemExit("need --archive and/or --store")
    if args.archive is None:
        return PatternBase(store=args.store)
    if args.store is None:
        return load_pattern_base(args.archive)
    probe = PatternBase(store=args.store)
    if len(probe):
        raise SystemExit(
            f"store {args.store} already holds {len(probe)} patterns; "
            "drop --archive to serve it directly"
        )
    return load_pattern_base(args.archive, store=probe.store)


def _cmd_match(args: argparse.Namespace) -> int:
    base = _open_base(args)
    if args.pattern is not None:
        pattern = base.get(args.pattern)
        if pattern is None:
            print(f"no pattern {args.pattern} in archive", file=sys.stderr)
            return 1
        query_sgs = pattern.sgs
    elif args.query_json:
        with open(args.query_json) as handle:
            query_sgs = sgs_from_json(handle.read())
    else:
        print("need --pattern or --query-json", file=sys.stderr)
        return 1
    inverted_levels = _parse_inverted_levels(args.inverted_levels)
    if inverted_levels and args.coarse_level < 1:
        # The screen only runs at a coarse entry level; don't silently
        # pay an archive-wide signature rebuild for nothing.
        print(
            "note: --inverted-levels has no effect without "
            "--coarse-level >= 1; ignoring it",
            file=sys.stderr,
        )
        inverted_levels = ()
    loaded_index = base.inverted_index()
    if inverted_levels and (
        loaded_index is None
        or not all(loaded_index.covers(lv) for lv in inverted_levels)
    ):
        # Legacy (v1/v2) archive, or one persisted with different
        # rungs: rebuild the inverted index at the requested rungs.
        base.enable_inverted(inverted_levels)
    engine = MatchEngine(base, _metric_from_args(args))
    try:
        query = MatchQuery(
            sgs=query_sgs,
            threshold=args.threshold,
            top_k=args.top,
            metric=engine.spec,
            window_range=_parse_window_span(args.windows),
            coarse_level=args.coarse_level,
        )
    except ValueError as error:
        print(f"invalid matching query: {error}", file=sys.stderr)
        return 1
    try:
        results, stats = engine.match(query)
    finally:
        base.close()
    screen_note = (
        f" coarse_screen={stats.coarse_screen}" if stats.coarse_screen else ""
    )
    print(
        f"archive {len(base)}: plan entry={stats.entry}{screen_note} "
        f"gathered={stats.gathered} screened={stats.screened} "
        f"coarse_rejected={stats.coarse_rejected} "
        f"refined={stats.refined} matches={stats.matches}"
    )
    for rank, result in enumerate(results, start=1):
        print(
            f"#{rank}: pattern {result.pattern.pattern_id} "
            f"(window {result.pattern.window_index}) distance "
            f"{result.distance:.4f}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving.httpd import make_server
    from repro.serving.service import MatchService

    from repro.serving.service import ServiceError

    try:
        service = MatchService.from_archive(
            args.archive,
            shards=args.shards,
            shard_key=args.shard_key,
            spec=_metric_from_args(args),
            mode=args.mode,
            coarse_level=args.coarse_level,
            inverted_levels=(
                _parse_inverted_levels(args.inverted_levels) or None
            ),
            replicas=args.replicas,
            store=args.store,
        )
    except ServiceError as error:
        print(str(error), file=sys.stderr)
        return 1
    server, host, port = make_server(service, args.host, args.port)
    # One parseable line, flushed before serving: tests and scripts
    # read the bound port from it (important with --port 0).
    print(
        f"serving {len(service.base)} patterns "
        f"(shards={service.base.shard_count}, mode={service.mode}, "
        f"replicas={service.engine.executor.replica_count}) "
        f"on http://{host}:{port}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    base = load_pattern_base(args.archive)
    pattern = base.get(args.pattern)
    if pattern is None:
        print(f"no pattern {args.pattern} in archive", file=sys.stderr)
        return 1
    if args.json:
        print(sgs_to_json(pattern.sgs))
        return 0
    from repro.viz.ascii_art import render_sgs

    print(
        f"pattern {pattern.pattern_id}: window {pattern.window_index}, "
        f"{len(pattern.sgs)} cells, population {pattern.sgs.population}"
    )
    print(render_sgs(pattern.sgs))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Density-based cluster summarization and matching "
        "over streams (SGS / C-SGS)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="write a synthetic stream CSV")
    generate.add_argument(
        "--kind", choices=("gmti", "stt", "blobs"), default="blobs"
    )
    generate.add_argument("--count", type=int, default=10000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True)
    generate.set_defaults(func=_cmd_generate)

    run = sub.add_parser("run", help="run continuous clustering queries")
    run.add_argument("--input", required=True, help="CSV of coordinates")
    run.add_argument("--theta-range", type=float, default=None)
    run.add_argument("--theta-count", type=int, default=None)
    run.add_argument("--win", type=float, default=None)
    run.add_argument("--slide", type=float, default=None)
    run.add_argument(
        "--queries", default=None, metavar="FILE",
        help="multiplex several queries over one pass: a file of DETECT "
        "templates, one per line (# comments allowed); replaces the "
        "single-query --theta-range/--theta-count/--win/--slide flags",
    )
    run.add_argument("--time-based", action="store_true")
    run.add_argument(
        "--timestamp-column", type=int, default=None,
        help="CSV column holding event time (time-based windows)",
    )
    run.add_argument(
        "--index-backend",
        choices=available_backends(),
        default="grid",
        help="neighbor-search backend for range queries (kdtree pays "
        "off from about 8 dimensions and on sparse streams)",
    )
    run.add_argument("--level", type=int, default=0, help="archive resolution")
    run.add_argument("--max-windows", type=int, default=None)
    run.add_argument("--archive", default=None, help="persist pattern base")
    run.add_argument(
        "--store", default=None, metavar="sqlite:PATH",
        help="archive crash-safely to a disk-backed pattern store as "
        "the run progresses (each pattern commits before the window "
        "is acknowledged); 'sqlite:PATH[?cache=N]' or 'memory'",
    )
    run.add_argument(
        "--inverted-levels", default=None, metavar="L1,L2",
        help="maintain the inverted cell-signature index at these "
        "coarse rungs during archival (persisted with --archive as "
        "format v3, so later matching starts warm)",
    )
    run.set_defaults(func=_cmd_run)

    multiplex = sub.add_parser(
        "multiplex",
        help="run a queries file multiplexed and report the sharing "
        "structure (rungs, cohorts, one-pass substrate stats)",
    )
    multiplex.add_argument("--input", required=True, help="CSV of coordinates")
    multiplex.add_argument(
        "--queries", required=True, metavar="FILE",
        help="DETECT templates, one per line (# comments allowed)",
    )
    multiplex.add_argument(
        "--factor", type=float, default=2.0,
        help="geometric step of the theta_range rung ladder (>= 2)",
    )
    multiplex.add_argument(
        "--timestamp-column", type=int, default=None,
        help="CSV column holding event time (time-based windows)",
    )
    multiplex.set_defaults(func=_cmd_multiplex)

    match = sub.add_parser("match", help="run a cluster matching query")
    match.add_argument("--archive", default=None)
    match.add_argument(
        "--store", default=None, metavar="sqlite:PATH",
        help="open a disk-backed pattern store directly (cold start "
        "skips the full dump load); with --archive and an empty "
        "store, imports the dump into the store first",
    )
    match.add_argument("--pattern", type=int, default=None)
    match.add_argument("--query-json", default=None)
    match.add_argument("--threshold", type=float, default=0.25)
    match.add_argument("--top", type=int, default=5)
    match.add_argument("--position-sensitive", action="store_true")
    match.add_argument(
        "--coarse-level", type=int, default=0,
        help="multi-resolution entry level of the coarse-to-fine "
        "refiner (0 = match stored cells directly)",
    )
    match.add_argument(
        "--windows", default=None, metavar="LO:HI",
        help="restrict matching to archived windows LO..HI (inclusive)",
    )
    match.add_argument(
        "--inverted-levels", default=None, metavar="L1,L2",
        help="serve the coarse screen from the inverted cell-signature "
        "index at these rungs (rebuilt if the archive file predates "
        "format v3 or was persisted with different rungs)",
    )
    match.set_defaults(func=_cmd_match)

    serve = sub.add_parser(
        "serve",
        help="serve a persisted archive over JSON/HTTP (always-on)",
    )
    serve.add_argument("--archive", default=None)
    serve.add_argument(
        "--store", default=None, metavar="sqlite:PATH",
        help="serve straight from a disk-backed pattern store (cold "
        "start reads metadata rows instead of loading a dump); with "
        "--archive and an empty store, imports the dump first",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765,
        help="TCP port (0 = let the OS pick; the bound port is printed)",
    )
    serve.add_argument(
        "--shards", type=int, default=1,
        help="partition the loaded archive into this many shards",
    )
    serve.add_argument(
        "--shard-key", choices=PARTITION_KEYS, default="window",
    )
    serve.add_argument(
        "--mode", choices=MODES, default=None,
        help="deployment mode: serial (in-process), process (one "
        "worker per shard, hydrated from shard dumps, "
        "restart-on-crash); default: serial, or process with "
        "--replicas > 1",
    )
    serve.add_argument(
        "--replicas", type=int, default=1,
        help="process-worker replicas per shard (implies --mode "
        "process): reads round-robin across live replicas, a worker "
        "death mid-task fails over to a sibling while the dead worker "
        "respawns in the background, and /stats reports per-shard "
        "replica liveness plus failover counters",
    )
    serve.add_argument("--position-sensitive", action="store_true")
    serve.add_argument(
        "--coarse-level", type=int, default=0,
        help="multi-resolution entry level served for queries that "
        "don't set their own",
    )
    serve.add_argument(
        "--inverted-levels", default=None, metavar="L1,L2",
        help="ensure the inverted cell-signature index exists at these "
        "rungs before serving",
    )
    serve.set_defaults(func=_cmd_serve)

    show = sub.add_parser("show", help="display an archived pattern")
    show.add_argument("--archive", required=True)
    show.add_argument("--pattern", type=int, required=True)
    show.add_argument("--json", action="store_true")
    show.set_defaults(func=_cmd_show)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
