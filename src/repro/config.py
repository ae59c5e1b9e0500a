"""Declarative query specifications (Figures 2 and 3).

These dataclasses mirror the paper's query templates so applications can
describe a workload once and hand it to the framework:

* :class:`ContinuousClusteringQuery` —
  ``DETECT DensityBasedClusters(f+s) FROM stream USING θrange, θcnt
  IN Windows WITH win AND slide``
* :class:`ClusterMatchingQuery` —
  ``GIVEN cluster SELECT clusters FROM History
  WHERE Distance <= sim_threshold``
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.archive.store import validate_store_spec
from repro.index.provider import validate_backend
from repro.matching.metric import DistanceMetricSpec
from repro.retrieval.shards import validate_partition_key
from repro.serving.executors import validate_mode
from repro.streams.windows import (
    CountBasedWindowSpec,
    TimeBasedWindowSpec,
    WindowSpec,
)


@dataclass
class ContinuousClusteringQuery:
    """A continuous cluster extraction query (Figure 2).

    ``index_backend`` selects the neighbor-search backend the query
    executes against (``grid`` / ``kdtree``; see
    :mod:`repro.index.provider`).

    The serving-side knobs shape the archive the query accumulates:
    ``match_shards`` > 1 partitions the Pattern Base (by
    ``match_shard_key``: ``window`` span or ``feature`` grid region)
    and fans matching queries out per shard;
    ``match_inverted_levels`` maintains the inverted cell-signature
    index at those coarse rungs during archival, so coarse screening
    runs on posting lists instead of per-pattern ladder walks (see
    :mod:`repro.retrieval.inverted` / :mod:`repro.retrieval.shards`).
    """

    theta_range: float
    theta_count: int
    dimensions: int
    window: WindowSpec
    index_backend: str = "grid"
    #: Matching-engine configuration threaded to the system's
    #: :class:`~repro.retrieval.engine.MatchEngine` (coarse entry level
    #: of the multi-resolution refiner; alignment-search budget).
    match_coarse_level: int = 0
    match_max_expansions: int = 32
    #: Archive partitioning for the serving side: number of shards and
    #: the partition key (``window`` / ``feature``).
    match_shards: int = 1
    match_shard_key: str = "window"
    #: Deployment mode of the sharded execution (``serial`` /
    #: ``process``; ``None`` = serial, or process when
    #: ``match_replicas`` > 1 — see :mod:`repro.serving`). Only
    #: meaningful with ``match_shards`` > 1.
    match_mode: Optional[str] = None
    #: Process-worker replicas per shard (> 1 implies
    #: ``match_mode="process"``): reads route round-robin across live
    #: replicas and fail over to a sibling when a worker dies
    #: mid-task, instead of stalling on a respawn.
    match_replicas: int = 1
    #: Coarse rungs of the inverted cell-signature index maintained
    #: during archival (empty = no inverted index).
    match_inverted_levels: Tuple[int, ...] = ()
    #: Where the archived patterns live (see
    #: :mod:`repro.archive.store`): ``None``/``"memory"`` keeps the
    #: in-process dict; ``"sqlite:PATH"`` archives crash-safely to a
    #: disk-backed SQLite-WAL store, committing each pattern before
    #: the archival is acknowledged.
    store: Optional[str] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta_range) and self.theta_range > 0):
            raise ValueError("theta_range must be positive and finite")
        if self.theta_count < 1:
            raise ValueError("theta_count must be at least 1")
        if self.dimensions < 1:
            raise ValueError("dimensions must be at least 1")
        if self.match_coarse_level < 0:
            raise ValueError("match_coarse_level must be non-negative")
        if self.match_max_expansions < 1:
            raise ValueError("match_max_expansions must be positive")
        if self.match_shards < 1:
            raise ValueError("match_shards must be positive")
        validate_partition_key(self.match_shard_key)
        if self.match_mode is not None:
            validate_mode(self.match_mode)
        if self.match_replicas < 1:
            raise ValueError("match_replicas must be positive")
        if self.match_replicas > 1 and self.match_mode == "serial":
            raise ValueError(
                "match_replicas > 1 needs match_mode 'process' (or "
                "unset, which then implies it)"
            )
        self.match_inverted_levels = tuple(
            int(level) for level in self.match_inverted_levels
        )
        if any(level < 1 for level in self.match_inverted_levels):
            raise ValueError("match_inverted_levels must all be >= 1")
        validate_store_spec(self.store)
        validate_backend(self.index_backend)

    @classmethod
    def count_based(
        cls,
        theta_range: float,
        theta_count: int,
        dimensions: int,
        win: int,
        slide: int,
        index_backend: str = "grid",
    ) -> "ContinuousClusteringQuery":
        return cls(
            theta_range,
            theta_count,
            dimensions,
            CountBasedWindowSpec(win, slide),
            index_backend=index_backend,
        )

    @classmethod
    def time_based(
        cls,
        theta_range: float,
        theta_count: int,
        dimensions: int,
        win: float,
        slide: float,
        origin: float = 0.0,
        index_backend: str = "grid",
    ) -> "ContinuousClusteringQuery":
        return cls(
            theta_range,
            theta_count,
            dimensions,
            TimeBasedWindowSpec(win, slide, origin),
            index_backend=index_backend,
        )


@dataclass
class ClusterMatchingQuery:
    """A cluster matching query (Figure 3).

    ``window_range`` restricts matching to an inclusive span of archived
    window indices; ``coarse_level`` selects the multi-resolution entry
    level of the coarse-to-fine refiner (0 = match stored cells
    directly). Both map one-to-one onto
    :class:`repro.retrieval.queries.MatchQuery` (and onto the textual
    template's ``MATCH WITH`` clause).
    """

    sim_threshold: float
    metric: DistanceMetricSpec = field(default_factory=DistanceMetricSpec)
    top_k: Optional[int] = None
    window_range: Optional[Tuple[int, int]] = None
    coarse_level: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.sim_threshold <= 1:
            raise ValueError("sim_threshold must be in [0, 1]")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be positive when given")
        if self.coarse_level < 0:
            raise ValueError("coarse_level must be non-negative")
        if self.window_range is not None:
            lo, hi = self.window_range
            if lo > hi:
                raise ValueError("window_range must be (lo, hi), lo <= hi")
