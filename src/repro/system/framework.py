"""The four-component framework of Figure 4, wired end to end.

``StreamPatternMiningSystem`` connects:

* the **Pattern Extractor** (Continuous Clustering Queries: full + SGS
  representation per window);
* the **Pattern Archiver** (selective archival, resolution choice);
* the **Pattern Base** (dual feature indices);
* the **Pattern Analyzer** (Cluster Matching Queries): the
  filter-and-refine :class:`~repro.retrieval.engine.MatchEngine` of
  :mod:`repro.retrieval`.

Typical use: construct, :meth:`run` (or :meth:`run_steps` to observe
windows as they complete), then submit :meth:`match` queries against
the accumulated stream history; :attr:`engine` serves full
:class:`~repro.retrieval.queries.MatchQuery` objects. Shards,
deployment modes and replicas belong to ``repro serve``
(:mod:`repro.serving`), not to these systems.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.archive.archiver import ArchivePolicy, PatternArchiver
from repro.archive.pattern_base import PatternBase
from repro.config import ContinuousClusteringQuery
from repro.core.csgs import WindowOutput
from repro.core.sgs import SGS
from repro.matching.metric import DistanceMetricSpec
from repro.multiplex.registry import RegisteredQuery, Sink
from repro.multiplex.scheduler import SlideScheduler
from repro.retrieval.engine import EngineStats, MatchEngine, MatchResult
from repro.streams.objects import StreamObject
from repro.streams.windows import WindowSpec
from repro.system.extractor import PatternExtractor


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
        match_inverted_levels: Optional[Sequence[int]] = None,
        store: Optional[str] = None,
    ):
        self.extractor = PatternExtractor(
            theta_range,
            theta_count,
            dimensions,
            window_spec,
            index_backend=index_backend,
        )
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
        self.engine = MatchEngine(self.pattern_base, spec=metric)

    @classmethod
    def from_query(
        cls,
        query: "ContinuousClusteringQuery",
        **kwargs,
    ) -> "StreamPatternMiningSystem":
        """Build a system from a declarative query (Figure 2 template).

        Consumes every field of the query — θr, θc, dimensions, window
        spec and ``index_backend`` — so the extraction pipeline runs
        exactly what the query declares. Remaining keyword arguments
        (metric, archive policy, store, …) pass through to the
        constructor; an explicit non-None ``index_backend`` overrides
        the query's.
        """
        if kwargs.get("index_backend") is None:
            kwargs["index_backend"] = query.index_backend
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
    ) -> Tuple[List[MatchResult], EngineStats]:
        """Submit a Cluster Matching Query (Figure 3) for any SGS."""
        return self.engine.match_sgs(query, threshold, top_k=top_k, spec=spec)

    @property
    def archived_count(self) -> int:
        return len(self.pattern_base)

    def close(self) -> None:
        """Release the archive's backing store; idempotent."""
        self.pattern_base.close()

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
    Base / Archiver / MatchEngine serves the accumulated archive across all
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
        self.engine = MatchEngine(self.pattern_base, spec=metric)

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
    ) -> Tuple[List[MatchResult], EngineStats]:
        """A Cluster Matching Query against the shared archive."""
        return self.engine.match_sgs(query, threshold, top_k=top_k, spec=spec)

    @property
    def archived_count(self) -> int:
        return len(self.pattern_base)

    def stats(self) -> dict:
        stats = self.scheduler.stats()
        stats["archived"] = len(self.pattern_base)
        return stats

    def close(self) -> None:
        self.pattern_base.close()

    def __enter__(self) -> "MultiplexedMiningSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
