"""Deterministic cross-shard merge of per-shard match answers.

Every deployment mode — in-process serial, process pool — funnels
its per-shard ``(results, stats)`` pairs through
:func:`merge_shard_results`: concatenate, sort by
``(distance, pattern_id)`` (the same stable tie-break the single
engine uses), cut to ``top_k`` *after* the merge. Distances are
per-pattern computations independent of placement, so the merged
output is identical to a single unsharded engine's — and identical
across executors, which the executor-parity suite pins.

Stats aggregate provider-style: the merged plan reports
``entry="sharded"`` with the shard count, each shard's own entry
choice, and summed phase counters.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.retrieval.engine import EngineStats, MatchResult
from repro.retrieval.queries import MatchQuery

#: Plan-entry label of a merged sharded execution.
ENTRY_SHARDED = "sharded"


def merge_shard_results(
    per_shard: Sequence[Tuple[List[MatchResult], EngineStats]],
    query: MatchQuery,
    parallel: bool,
) -> Tuple[List[MatchResult], EngineStats]:
    """Merge one query's per-shard answers (in shard order) into the
    single-engine-identical result list plus aggregated stats."""
    results: List[MatchResult] = []
    for shard_results, _ in per_shard:
        results.extend(shard_results)
    results.sort(key=lambda r: (r.distance, r.pattern.pattern_id))
    merged = EngineStats(
        archive_size=sum(s.archive_size for _, s in per_shard),
        plan={
            "entry": ENTRY_SHARDED,
            "shards": len(per_shard),
            "entries": [s.entry for _, s in per_shard],
            "archive": sum(s.archive_size for _, s in per_shard),
            "gathered": sum(s.gathered for _, s in per_shard),
            "shared_gather": any(
                s.plan.get("shared_gather") for _, s in per_shard
            ),
            "parallel": parallel,
        },
    )
    for _, stats in per_shard:
        merged.screened += stats.screened
        merged.feature_filtered += stats.feature_filtered
        merged.coarse_evaluated += stats.coarse_evaluated
        merged.coarse_rejected += stats.coarse_rejected
        merged.coarse_fast_accepted += stats.coarse_fast_accepted
        merged.refined += stats.refined
        merged.matches += stats.matches
    screens = {s.coarse_screen for _, s in per_shard if s.coarse_screen}
    if screens:
        merged.coarse_screen = (
            screens.pop() if len(screens) == 1 else "mixed"
        )
    if query.top_k is not None:
        results = results[: query.top_k]
    return results, merged
