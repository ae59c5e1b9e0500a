"""The four-component framework of Figure 4, wired end to end.

``StreamPatternMiningSystem`` connects:

* the **Pattern Extractor** (Continuous Clustering Queries: full + SGS
  representation per window);
* the **Pattern Archiver** (selective archival, resolution choice);
* the **Pattern Base** (dual feature indices);
* the **Pattern Analyzer / Match Engine** (Cluster Matching Queries —
  the filter-and-refine retrieval engine of :mod:`repro.retrieval`).

Typical use: construct, :meth:`run` (or :meth:`run_steps` to observe
windows as they complete), then submit :meth:`match` queries against
the accumulated stream history; :attr:`engine` serves full
:class:`~repro.retrieval.queries.MatchQuery` objects.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

from repro.archive.analyzer import MatchResult, MatchStats, PatternAnalyzer
from repro.archive.archiver import ArchivePolicy, PatternArchiver
from repro.archive.pattern_base import PatternBase
from repro.config import ContinuousClusteringQuery
from repro.core.csgs import WindowOutput
from repro.core.sgs import SGS
from repro.matching.metric import DistanceMetricSpec
from repro.multiplex.registry import RegisteredQuery, Sink
from repro.multiplex.scheduler import SlideScheduler
from repro.retrieval.engine import MatchEngine
from repro.retrieval.shards import ShardedPatternBase
from repro.streams.objects import StreamObject
from repro.streams.windows import WindowSpec
from repro.system.extractor import PatternExtractor


class _ArchiveThroughEngine:
    """The archiver-facing ``add`` surface of a sharded match engine:
    archival routed through :meth:`ShardedMatchEngine.ingest` updates
    both the in-process base and any executor-held shard copies."""

    def __init__(self, engine):
        self._engine = engine

    def add(self, sgs: SGS, full_size: int):
        return self._engine.ingest(sgs, full_size)


class StreamPatternMiningSystem:
    """End-to-end: extract, summarize, archive, and match clusters."""

    def __init__(
        self,
        theta_range: float,
        theta_count: int,
        dimensions: int,
        window_spec: WindowSpec,
        metric: Optional[DistanceMetricSpec] = None,
        archive_policy: Optional[ArchivePolicy] = None,
        archive_level: int = 0,
        archive_byte_budget: Optional[int] = None,
        index_backend: Optional[str] = None,
        match_coarse_level: Optional[int] = None,
        match_max_expansions: Optional[int] = None,
        match_shards: Optional[int] = None,
        match_shard_key: Optional[str] = None,
        match_inverted_levels: Optional[Sequence[int]] = None,
        match_mode: Optional[str] = None,
        match_replicas: Optional[int] = None,
        store: Optional[str] = None,
    ):
        self.extractor = PatternExtractor(
            theta_range,
            theta_count,
            dimensions,
            window_spec,
            index_backend=index_backend,
        )
        shards = 1 if match_shards is None else int(match_shards)
        shard_key = "window" if match_shard_key is None else match_shard_key
        replicas = 1 if match_replicas is None else int(match_replicas)
        inverted_levels = (
            tuple(match_inverted_levels) if match_inverted_levels else None
        )
        # An explicit deployment mode forces the sharded serving path
        # even over a single shard — the executor seam still applies
        # (e.g. match_mode="process" serves from one worker, and
        # match_replicas > 1 serves from a replicated worker group).
        if shards > 1 or match_mode is not None or replicas > 1:
            if store is not None:
                # The durable store stays the system of record; shard
                # layout is a serving-time choice on top of it (reopen
                # loads any patterns it already holds).
                origin = PatternBase(
                    inverted_levels=inverted_levels, store=store
                )
                self.pattern_base = ShardedPatternBase.from_base(
                    origin, shards, shard_key,
                    inverted_levels=inverted_levels,
                )
            else:
                self.pattern_base = ShardedPatternBase(
                    shards, shard_key, inverted_levels=inverted_levels
                )
        else:
            self.pattern_base = PatternBase(
                inverted_levels=inverted_levels, store=store
            )
        # The analyzer builds the engine matching the base: a
        # ShardedMatchEngine over a partitioned archive (with the
        # requested deployment mode — see repro.serving), a plain
        # MatchEngine otherwise.
        expansions = (
            32 if match_max_expansions is None else match_max_expansions
        )
        coarse = 0 if match_coarse_level is None else match_coarse_level
        prebuilt = None
        archive_target = self.pattern_base
        if isinstance(self.pattern_base, ShardedPatternBase):
            from repro.retrieval.shards import ShardedMatchEngine

            prebuilt = ShardedMatchEngine(
                self.pattern_base,
                spec=metric,
                max_alignment_expansions=expansions,
                coarse_level=coarse,
                mode=match_mode,
                replicas=replicas,
            )
            # Archival must flow through the facade so executors that
            # keep their own shard copies (process workers) hear about
            # every new pattern, not just the in-process base.
            archive_target = _ArchiveThroughEngine(prebuilt)
        self.archiver = PatternArchiver(
            archive_target,
            policy=archive_policy,
            level=archive_level,
            byte_budget_per_cluster=archive_byte_budget,
        )
        self.analyzer = PatternAnalyzer(
            self.pattern_base,
            metric,
            max_alignment_expansions=expansions,
            coarse_level=coarse,
            engine=prebuilt,
        )

    @property
    def engine(self) -> MatchEngine:
        """The matching-query engine serving this system's archive (a
        :class:`~repro.retrieval.shards.ShardedMatchEngine` when the
        archive is partitioned)."""
        return self.analyzer.engine

    @classmethod
    def from_query(
        cls,
        query: "ContinuousClusteringQuery",
        **kwargs,
    ) -> "StreamPatternMiningSystem":
        """Build a system from a declarative query (Figure 2 template).

        Consumes every field of the query — θr, θc, dimensions, window
        spec, ``index_backend``, and the matching-engine
        configuration (``match_coarse_level`` /
        ``match_max_expansions``) — so both the extraction pipeline and
        the retrieval engine run exactly what the query declares.
        Remaining keyword arguments (metric, archive policy, …) pass
        through to the constructor; explicit non-None keywords override
        the query's fields.
        """
        for name in (
            "index_backend",
            "match_coarse_level",
            "match_max_expansions",
            "match_shards",
            "match_shard_key",
            "match_inverted_levels",
            "match_mode",
            "match_replicas",
            "store",
        ):
            if kwargs.get(name) is None:
                kwargs[name] = getattr(query, name)
        return cls(
            query.theta_range,
            query.theta_count,
            query.dimensions,
            query.window,
            **kwargs,
        )

    def run_steps(
        self,
        source: Iterable[StreamObject],
        max_windows: Optional[int] = None,
    ) -> Iterator[WindowOutput]:
        """Process the stream, archiving each window's clusters, and
        yield each window's output for live monitoring."""
        for output in self.extractor.run(source, max_windows=max_windows):
            self.archiver.archive_output(output)
            yield output

    def run(
        self,
        source: Iterable[StreamObject],
        max_windows: Optional[int] = None,
    ) -> List[WindowOutput]:
        """Process the stream to completion; returns all window outputs."""
        return list(self.run_steps(source, max_windows=max_windows))

    def match(
        self,
        query: SGS,
        threshold: float,
        top_k: Optional[int] = None,
        spec: Optional[DistanceMetricSpec] = None,
    ) -> "tuple[List[MatchResult], MatchStats]":
        """Submit a Cluster Matching Query (Figure 3) for any SGS."""
        return self.analyzer.match(query, threshold, top_k=top_k, spec=spec)

    @property
    def archived_count(self) -> int:
        return len(self.pattern_base)

    def close(self) -> None:
        """Release the match engine's executor (shard worker
        processes, if any) and the archive's backing store; idempotent,
        and a no-op for the plain in-process, in-memory setup."""
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()
        base_close = getattr(self.pattern_base, "close", None)
        if base_close is not None:
            base_close()

    def __enter__(self) -> "StreamPatternMiningSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MultiplexedMiningSystem:
    """The Figure-4 framework with a multiplexed Pattern Extractor.

    Where :class:`StreamPatternMiningSystem` runs **one** Continuous
    Clustering Query end to end, this system runs **many** concurrently
    over one stream: queries register and unregister at runtime
    (:mod:`repro.multiplex.registry`), a slide scheduler answers every
    batch with one shared range-query pass
    (:mod:`repro.multiplex.scheduler`), and a single Pattern
    Base / Archiver / Analyzer serves the accumulated archive across all
    of them. Queries opting into archival (``archive=True``) feed their
    window outputs through the shared archiver; every query's output is
    still byte-identical to a dedicated independent run.
    """

    def __init__(
        self,
        dimensions: int,
        metric: Optional[DistanceMetricSpec] = None,
        archive_policy: Optional[ArchivePolicy] = None,
        archive_level: int = 0,
        archive_byte_budget: Optional[int] = None,
        factor: float = 2.0,
        match_coarse_level: Optional[int] = None,
        match_max_expansions: Optional[int] = None,
        match_inverted_levels: Optional[Sequence[int]] = None,
        store: Optional[str] = None,
    ):
        self.scheduler = SlideScheduler(dimensions, factor=factor)
        self.registry = self.scheduler.registry
        inverted_levels = (
            tuple(match_inverted_levels) if match_inverted_levels else None
        )
        self.pattern_base = PatternBase(
            inverted_levels=inverted_levels, store=store
        )
        self.archiver = PatternArchiver(
            self.pattern_base,
            policy=archive_policy,
            level=archive_level,
            byte_budget_per_cluster=archive_byte_budget,
        )
        self.analyzer = PatternAnalyzer(
            self.pattern_base,
            metric,
            max_alignment_expansions=(
                32 if match_max_expansions is None else match_max_expansions
            ),
            coarse_level=(
                0 if match_coarse_level is None else match_coarse_level
            ),
        )

    @property
    def engine(self) -> MatchEngine:
        return self.analyzer.engine

    def register(
        self,
        query: ContinuousClusteringQuery,
        sink: Optional[Sink] = None,
        archive: bool = False,
    ) -> RegisteredQuery:
        """Admit a query into the multiplexed run. With ``archive=True``
        its window outputs also flow into the shared Pattern Base (via
        the archiver's policy), before the caller's sink sees them."""
        if archive:
            caller_sink = sink

            def sink(handle, output):
                self.archiver.archive_output(output)
                if caller_sink is not None:
                    caller_sink(handle, output)

        return self.scheduler.register(query, sink=sink)

    def unregister(self, query_id: int) -> RegisteredQuery:
        return self.scheduler.unregister(query_id)

    def feed(self, source: Iterable[StreamObject]):
        return self.scheduler.feed(source)

    def flush(self):
        return self.scheduler.flush()

    def run(self, source: Iterable[StreamObject]):
        return self.scheduler.run(source)

    def match(
        self,
        query: SGS,
        threshold: float,
        top_k: Optional[int] = None,
        spec: Optional[DistanceMetricSpec] = None,
    ) -> "tuple[List[MatchResult], MatchStats]":
        """A Cluster Matching Query against the shared archive."""
        return self.analyzer.match(query, threshold, top_k=top_k, spec=spec)

    @property
    def archived_count(self) -> int:
        return len(self.pattern_base)

    def stats(self) -> dict:
        stats = self.scheduler.stats()
        stats["archived"] = len(self.pattern_base)
        return stats

    def close(self) -> None:
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()
        base_close = getattr(self.pattern_base, "close", None)
        if base_close is not None:
            base_close()

    def __enter__(self) -> "MultiplexedMiningSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
