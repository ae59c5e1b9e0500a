"""The Pattern Analyzer: filter-and-refine cluster matching queries.

Section 7.2's two-phase execution:

1. **Filter** — locate candidates through a feature index. Position
   sensitive: the R-tree returns the overlapping patterns. Otherwise:
   the non-locational feature grid is range-queried with the per-feature
   bounds derived from the distance threshold and weights. Candidates
   are then screened by the cheap cluster-level feature distance.
2. **Refine** — only candidates surviving the filter get the expensive
   grid-cell-level match (with the anytime alignment search in the
   non-position-sensitive case); those within the threshold are returned,
   closest first.

Since PR 4 the execution itself lives in :mod:`repro.retrieval`: the
analyzer is a thin façade that builds a
:class:`~repro.retrieval.queries.MatchQuery` and hands it to the
:class:`~repro.retrieval.engine.MatchEngine` (exposed as
:attr:`PatternAnalyzer.engine` — planner choice, batched serving, and
the multi-resolution coarse entry are reachable there). The returned
:class:`MatchStats` keep the original phase accounting — the basis of
the paper's "only 6% needed the grid-level match" observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.archive.pattern_base import PatternBase
from repro.core.sgs import SGS
from repro.matching.metric import DistanceMetricSpec
from repro.retrieval.engine import EngineStats, MatchEngine, MatchResult

__all__ = ["MatchResult", "MatchStats", "PatternAnalyzer"]


@dataclass
class MatchStats:
    """Per-query phase accounting (compatibility view of
    :class:`~repro.retrieval.engine.EngineStats`)."""

    archive_size: int = 0
    index_candidates: int = 0
    refined: int = 0
    matches: int = 0
    entry: str = ""

    @classmethod
    def from_engine(cls, stats: EngineStats) -> "MatchStats":
        return cls(
            archive_size=stats.archive_size,
            index_candidates=stats.gathered,
            refined=stats.refined,
            matches=stats.matches,
            entry=stats.entry,
        )

    @property
    def refine_fraction(self) -> float:
        """Fraction of archived clusters that needed the cell-level match."""
        if self.archive_size == 0:
            return 0.0
        return self.refined / self.archive_size


class PatternAnalyzer:
    """Executes cluster matching queries against a Pattern Base."""

    def __init__(
        self,
        base: PatternBase,
        spec: Optional[DistanceMetricSpec] = None,
        max_alignment_expansions: int = 32,
        coarse_level: int = 0,
        engine=None,
    ):
        """``engine`` injects a prebuilt engine; without one, the
        analyzer builds the engine matching the base — a
        :class:`~repro.retrieval.shards.ShardedMatchEngine` for a
        partitioned archive, a plain :class:`MatchEngine` otherwise —
        so the façade serves either transparently."""
        self.base = base
        if engine is None:
            from repro.retrieval.shards import (
                ShardedMatchEngine,
                ShardedPatternBase,
            )

            engine_cls = (
                ShardedMatchEngine
                if isinstance(base, ShardedPatternBase)
                else MatchEngine
            )
            engine = engine_cls(
                base,
                spec=spec,
                max_alignment_expansions=max_alignment_expansions,
                coarse_level=coarse_level,
            )
        self.engine = engine

    def match(
        self,
        query: SGS,
        threshold: float,
        top_k: Optional[int] = None,
        spec: Optional[DistanceMetricSpec] = None,
    ) -> Tuple[List[MatchResult], MatchStats]:
        """Run one cluster matching query.

        Returns ``(results, stats)``: matches with refined distance
        ``<= threshold`` sorted ascending (truncated to ``top_k`` when
        given), plus the phase statistics.
        """
        results, engine_stats = self.engine.match_sgs(
            query, threshold, top_k=top_k, spec=spec
        )
        return results, MatchStats.from_engine(engine_stats)
