"""The always-on match service: one archive, every deployment mode.

:class:`MatchService` is the application object behind ``repro serve``
(and behind any embedding that wants a long-lived matching front end):
it owns a partitioned archive plus one
:class:`~repro.retrieval.shards.ShardedMatchEngine` whose executor is
picked by ``mode`` — so ``{serial, process}`` are
interchangeable at the service boundary with identical answers — and
exposes the five operations of the HTTP surface as plain-dict
request/response methods:

* ``ingest``    — archive a new window pattern (and propagate it to the
  executor's shard copy, e.g. a process worker's hydrated replica);
* ``match``     — one Cluster Matching Query;
* ``match_many``— a batch, one shared per-shard gather;
* ``stats``     — archive/serving configuration plus request counters;
* ``healthz``   — liveness.

The service also fronts the query-multiplexing subsystem
(:mod:`repro.multiplex`): ``register_query`` / ``unregister_query``
admit and retire Continuous Clustering Queries at runtime, and
``stream`` feeds stream objects through the shared slide scheduler —
one batched range-query pass per slide regardless of how many queries
are registered. Queries registered with ``"archive": true`` feed their
window summaries into the served archive, immediately matchable.

Requests and responses are JSON-able dicts built on the wire forms of
:mod:`repro.serving.wire`; the HTTP layer (:mod:`repro.serving.httpd`)
only decodes/encodes JSON around these methods. A single lock
serializes operations — the engines and the archive are not safe under
concurrent mutation, and determinism is the product.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence

from repro.archive.pattern_base import PatternBase
from repro.archive.persistence import load_pattern_base
from repro.config import ContinuousClusteringQuery
from repro.core.serialize import sgs_from_dict
from repro.matching.metric import DistanceMetricSpec
from repro.multiplex.scheduler import SlideScheduler
from repro.streams.objects import StreamObject
from repro.retrieval.engine import EngineStats, MatchResult
from repro.retrieval.queries import MatchQuery
from repro.retrieval.shards import ShardedMatchEngine, ShardedPatternBase
from repro.serving.wire import metric_to_wire, query_from_wire, stats_to_wire

__all__ = ["MatchService", "ServiceError"]


class ServiceError(ValueError):
    """A malformed or unanswerable request (maps to HTTP 400)."""


def _result_to_dict(result: MatchResult) -> Dict[str, object]:
    return {
        "pattern_id": result.pattern.pattern_id,
        "window_index": result.pattern.window_index,
        "distance": result.distance,
        "alignment": list(result.alignment),
    }


class MatchService:
    """A long-lived matching front end over one (sharded) archive."""

    def __init__(
        self,
        base: ShardedPatternBase,
        spec: Optional[DistanceMetricSpec] = None,
        mode: Optional[str] = None,
        coarse_level: int = 0,
        max_alignment_expansions: int = 32,
        replicas: int = 1,
    ):
        self.base = base
        self.engine = ShardedMatchEngine(
            base,
            spec=spec,
            coarse_level=coarse_level,
            max_alignment_expansions=max_alignment_expansions,
            mode=mode,
            replicas=replicas,
        )
        self._lock = threading.Lock()
        self._counters = {
            "ingest": 0,
            "match": 0,
            "match_many": 0,
            "queries": 0,
            "register_query": 0,
            "unregister_query": 0,
            "stream": 0,
        }
        # The multiplexing front: created lazily by the first
        # register_query (its payload fixes the dimensionality).
        self._scheduler: Optional[SlideScheduler] = None
        self._stream_oid = 0

    @classmethod
    def from_archive(
        cls,
        path: Optional[str] = None,
        shards: int = 1,
        shard_key: str = "window",
        spec: Optional[DistanceMetricSpec] = None,
        mode: Optional[str] = None,
        coarse_level: int = 0,
        max_alignment_expansions: int = 32,
        inverted_levels: Optional[Sequence[int]] = None,
        replicas: int = 1,
        store: Optional[str] = None,
    ) -> "MatchService":
        """Hydrate a service from a persisted archive.

        ``path`` names a format-v3 dump file; ``store`` names a
        :mod:`repro.archive.store` backend (``sqlite:PATH``). Either
        alone works: a populated store opens directly — cold start
        reads metadata rows, skipping the full dump load — and a dump
        file loads into whatever store is asked for (the one-time
        import path). Giving both with a *populated* store is an
        error: the service cannot guess which archive should win.

        The archive is partitioned into ``shards`` by ``shard_key``
        (1 shard is a valid deployment — the seam still applies, e.g.
        ``mode="process"`` serves from one worker). ``replicas``
        spawns that many process workers per shard for failover
        (implying ``mode="process"`` when no mode is given). A
        format-v3 dump's inverted signatures transfer to the shards
        without recomputation.
        """
        if path is None and store is None:
            raise ServiceError(
                "from_archive needs an archive file or a store"
            )
        if path is None:
            base = PatternBase(store=store)
        else:
            if store is not None:
                probe = PatternBase(store=store)
                if len(probe):
                    probe.close()
                    raise ServiceError(
                        "store already holds patterns; serve it without "
                        "an archive file (or import into a fresh store)"
                    )
                base = load_pattern_base(path, store=probe.store)
            else:
                base = load_pattern_base(path)
        if inverted_levels:
            loaded = base.inverted_index()
            if loaded is None or not all(
                loaded.covers(level) for level in inverted_levels
            ):
                base.enable_inverted(tuple(inverted_levels))
        sharded = ShardedPatternBase.from_base(base, shards, shard_key)
        return cls(
            sharded,
            spec=spec,
            mode=mode,
            coarse_level=coarse_level,
            max_alignment_expansions=max_alignment_expansions,
            replicas=replicas,
        )

    # ------------------------------------------------------------------
    # Service surface (plain-dict in, plain-dict out)
    # ------------------------------------------------------------------

    @property
    def mode(self) -> str:
        return self.engine.mode

    def _parse_query(self, data: Dict[str, object]) -> MatchQuery:
        try:
            return query_from_wire(data, default_metric=self.engine.spec)
        except (KeyError, TypeError, ValueError) as error:
            raise ServiceError(f"bad query: {error}") from None

    def _answer(self, results: List[MatchResult], stats: EngineStats):
        return {
            "results": [_result_to_dict(result) for result in results],
            "stats": stats_to_wire(stats),
        }

    def ingest(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Archive one pattern: ``{"sgs": <sgs dict>, "full_size": n}``."""
        if not isinstance(payload, dict) or "sgs" not in payload:
            raise ServiceError('ingest needs {"sgs": ..., "full_size": ...}')
        try:
            sgs = sgs_from_dict(payload["sgs"])
            full_size = int(payload.get("full_size", sgs.population))
        except (KeyError, TypeError, ValueError) as error:
            raise ServiceError(f"bad ingest payload: {error}") from None
        with self._lock:
            pattern = self.engine.ingest(sgs, full_size)
            self._counters["ingest"] += 1
            return {
                "pattern_id": pattern.pattern_id,
                "shard": self.base.shard_index_of(pattern.pattern_id),
                "archive_size": len(self.base),
            }

    def match(self, payload: Dict[str, object]) -> Dict[str, object]:
        query = self._parse_query(payload)
        with self._lock:
            results, stats = self.engine.match(query)
            self._counters["match"] += 1
            self._counters["queries"] += 1
            return self._answer(results, stats)

    def match_many(self, payload: Dict[str, object]) -> Dict[str, object]:
        if not isinstance(payload, dict) or not isinstance(
            payload.get("queries"), list
        ):
            raise ServiceError('match_many needs {"queries": [...]}')
        queries = [self._parse_query(data) for data in payload["queries"]]
        with self._lock:
            answers = self.engine.match_many(queries)
            self._counters["match_many"] += 1
            self._counters["queries"] += len(queries)
            return {
                "answers": [
                    self._answer(results, stats)
                    for results, stats in answers
                ]
            }

    # ------------------------------------------------------------------
    # Query multiplexing (register / unregister / stream)
    # ------------------------------------------------------------------

    def _parse_clustering_query(
        self, payload: Dict[str, object], dimensions: int
    ) -> ContinuousClusteringQuery:
        if "query" in payload:
            from repro.query.parser import parse_query

            try:
                query = parse_query(
                    str(payload["query"]), dimensions=dimensions
                )
            except (TypeError, ValueError) as error:
                raise ServiceError(str(error)) from None
            if not isinstance(query, ContinuousClusteringQuery):
                raise ServiceError(
                    "only DETECT (continuous clustering) queries can be "
                    "registered for multiplexed execution"
                )
            return query
        for field in ("theta_range", "theta_count", "win", "slide"):
            if field not in payload:
                raise ServiceError(
                    'register needs a "query" DETECT template or '
                    "theta_range/theta_count/win/slide fields"
                )
        try:
            if payload.get("time_based"):
                return ContinuousClusteringQuery.time_based(
                    float(payload["theta_range"]),
                    payload["theta_count"],
                    dimensions,
                    win=float(payload["win"]),
                    slide=float(payload["slide"]),
                    origin=float(payload.get("origin", 0.0)),
                )
            return ContinuousClusteringQuery.count_based(
                float(payload["theta_range"]),
                payload["theta_count"],
                dimensions,
                win=payload["win"],
                slide=payload["slide"],
            )
        except (TypeError, ValueError, OverflowError) as error:
            raise ServiceError(f"bad query parameters: {error}") from None

    def _archive_sink(self, handle, output) -> None:
        # Runs under the service lock (stream() holds it): route each
        # window's summaries through the engine so executor-held shard
        # copies hear about them too, immediately matchable.
        for cluster, sgs in zip(output.clusters, output.summaries):
            self.engine.ingest(sgs, cluster.size)

    def register_query(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Admit a Continuous Clustering Query into the multiplexed run.

        ``{"query": "DETECT ..."}`` or explicit
        ``theta_range/theta_count/win/slide`` fields; the first
        registration must declare ``"dimensions"`` (it fixes the run).
        ``"archive": true`` routes the query's window summaries into
        the served archive.
        """
        if not isinstance(payload, dict):
            raise ServiceError("register_query expects a JSON object")
        # A new run's scheduler is kept only once its first query
        # registers, so a refused first registration fixes no
        # dimensionality. A set scheduler is never replaced: reading it
        # unlocked only orders this request before a concurrent first one.
        running = self._scheduler
        fresh = None
        if "dimensions" in payload:
            dimensions = payload["dimensions"]
        elif running is not None:
            dimensions = running.dimensions
        else:
            raise ServiceError(
                'the first registered query must declare "dimensions"'
            )
        query = self._parse_clustering_query(payload, dimensions)
        if running is None:
            try:
                fresh = SlideScheduler(
                    query.dimensions, factor=float(payload.get("factor", 2.0))
                )
            except (TypeError, ValueError) as error:
                raise ServiceError(str(error)) from None
        sink = self._archive_sink if payload.get("archive") else None
        with self._lock:
            scheduler = self._scheduler or fresh
            try:
                handle = scheduler.register(query, sink=sink)
            except ValueError as error:
                raise ServiceError(str(error)) from None
            self._scheduler = scheduler
            self._counters["register_query"] += 1
            return {"query": handle.describe()}

    def unregister_query(self, query_id) -> Dict[str, object]:
        """Stop a registered query; it receives no further windows."""
        with self._lock:
            if self._scheduler is None:
                raise ServiceError("no queries registered")
            try:
                handle = self._scheduler.unregister(int(query_id))
            except KeyError:
                raise ServiceError(
                    f"no registered query with id {query_id}"
                ) from None
            except (TypeError, ValueError) as error:
                raise ServiceError(str(error)) from None
            self._counters["unregister_query"] += 1
            return {"query": handle.describe()}

    def stream(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Feed stream objects through the multiplexed scheduler.

        ``{"objects": [[coord, ...], ...]}`` plus optional parallel
        ``"timestamps"`` (time-based windows) and ``"flush": true`` to
        force the final partial slide through. Returns the windows the
        batch closed, with a per-query result block each.
        """
        if not isinstance(payload, dict) or not isinstance(
            payload.get("objects"), list
        ):
            raise ServiceError('stream needs {"objects": [[coord, ...], ...]}')
        timestamps = payload.get("timestamps")
        if timestamps is not None and (
            not isinstance(timestamps, list)
            or len(timestamps) != len(payload["objects"])
        ):
            raise ServiceError("timestamps must parallel objects")
        with self._lock:
            if self._scheduler is None or not len(self._scheduler.registry):
                raise ServiceError("register a query before streaming")
            dimensions = self._scheduler.dimensions
            objects = []
            try:
                for i, coords in enumerate(payload["objects"]):
                    values = tuple(float(v) for v in coords)
                    if len(values) != dimensions:
                        raise ServiceError(
                            f"object {i} has {len(values)} coordinates; "
                            f"this run is {dimensions}-dimensional"
                        )
                    timestamp = (
                        float(timestamps[i]) if timestamps is not None else None
                    )
                    # Refused here, before any object of the batch is
                    # admitted: the index would only trip on it later,
                    # blaming whichever batch closes the slide.
                    if not all(map(math.isfinite, values)) or (
                        timestamp is not None and not math.isfinite(timestamp)
                    ):
                        raise ValueError(
                            f"object {i} is not finite: {values}, "
                            f"timestamp {timestamp}"
                        )
                    objects.append(
                        StreamObject(self._stream_oid + i, values, timestamp)
                    )
            except ServiceError:
                raise
            except (TypeError, ValueError) as error:
                raise ServiceError(f"bad stream objects: {error}") from None
            # A late object refuses its whole batch here: feed would
            # already have admitted (and closed slides for) the objects
            # before it.
            try:
                self._scheduler.check_order(objects)
            except ValueError as error:
                raise ServiceError(str(error)) from None
            self._stream_oid += len(objects)
            try:
                windows = self._scheduler.feed(objects)
                if payload.get("flush"):
                    windows.extend(self._scheduler.flush())
            except ValueError as error:
                raise ServiceError(str(error)) from None
            self._counters["stream"] += 1
            return {
                "accepted": len(objects),
                "windows": [
                    {
                        "window": index,
                        "queries": {
                            str(qid): {
                                "clusters": len(output.clusters),
                                "cluster_sizes": [
                                    c.size for c in output.clusters
                                ],
                            }
                            for qid, output in sorted(outputs.items())
                        },
                    }
                    for index, outputs in windows
                ],
            }

    def stats(self) -> Dict[str, object]:
        with self._lock:
            executor = self.engine.executor
            return {
                "archive_size": len(self.base),
                "shards": self.base.shard_count,
                "shard_sizes": list(self.base.shard_sizes()),
                "partition_key": self.base.partition_key,
                "mode": self.engine.mode,
                "parallel": self.engine.parallel,
                "metric": metric_to_wire(self.engine.spec),
                "coarse_level": self.engine.coarse_level,
                # Replica health: worker replicas per shard, which are
                # currently alive, and how often reads failed over to
                # a sibling / workers were respawned. In-process modes
                # report one implicit replica and an empty liveness
                # table (there are no worker processes to die).
                "replicas": executor.replica_count,
                "replica_liveness": executor.replica_liveness(),
                "failovers": executor.failovers,
                "restarts": executor.restarts,
                # Where the pattern records live (backend, durability,
                # path, hydration-cache telemetry for a disk store).
                "store": self.base.store_info(),
                "requests": dict(self._counters),
                # Per-query blocks and sharing structure of the
                # multiplexed run, when one is active.
                "multiplex": (
                    self._scheduler.stats()
                    if self._scheduler is not None
                    else None
                ),
            }

    def healthz(self) -> Dict[str, object]:
        return {
            "status": "ok",
            "mode": self.engine.mode,
            "archive_size": len(self.base),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        self.engine.close()
        self.base.close()

    def __enter__(self) -> "MatchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
