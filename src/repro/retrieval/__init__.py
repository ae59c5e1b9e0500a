"""Matching-query retrieval over the archived Stream History.

The Pattern Base stores summarized clusters behind two feature indices
(Section 7.1); this package turns it into a servable workload:

* :mod:`repro.retrieval.queries` — the query model
  (:class:`~repro.retrieval.queries.MatchQuery`: threshold / top-k,
  metric spec, window-range and feature constraints, coarse entry
  level);
* :mod:`repro.retrieval.planner` — per-query entry-index selection
  (R-tree / feature grid / full scan) with a provider-style stats
  report;
* :mod:`repro.retrieval.engine` — the coarse-to-fine refiner
  (:class:`~repro.retrieval.engine.MatchEngine`) with a cached
  multi-resolution ladder and batched ``match_many`` serving;
* :mod:`repro.retrieval.inverted` — the persistent inverted
  cell-signature index (posting lists over canonical-origin coarse
  cells) that replaces the per-pattern ladder walk on the coarse
  screening hot path;
* :mod:`repro.retrieval.shards` — partition-parallel serving
  (:class:`~repro.retrieval.shards.ShardedPatternBase` /
  :class:`~repro.retrieval.shards.ShardedMatchEngine`): plan per
  shard, fan ``match_many`` out across shards, merge
  deterministically. Only ``repro serve`` (:mod:`repro.serving`)
  shards an archive.

:class:`MatchEngine` is Figure 4's Pattern Analyzer: the mining
systems, ``repro match`` and the benchmarks call it directly.
"""

from repro.retrieval.engine import EngineStats, MatchEngine, MatchResult
from repro.retrieval.inverted import InvertedCellIndex
from repro.retrieval.planner import (
    ENTRY_FEATURE_GRID,
    ENTRY_INVERTED,
    ENTRY_RTREE,
    ENTRY_SCAN,
    SCAN_CUTOFF,
    plan_query,
)
from repro.retrieval.queries import MatchQuery
from repro.retrieval.shards import (
    PARTITION_KEYS,
    ShardedMatchEngine,
    ShardedPatternBase,
)

__all__ = [
    "ENTRY_FEATURE_GRID",
    "ENTRY_INVERTED",
    "ENTRY_RTREE",
    "ENTRY_SCAN",
    "EngineStats",
    "InvertedCellIndex",
    "MatchEngine",
    "MatchQuery",
    "MatchResult",
    "PARTITION_KEYS",
    "SCAN_CUTOFF",
    "ShardedMatchEngine",
    "ShardedPatternBase",
    "plan_query",
]
