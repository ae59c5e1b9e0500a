"""Wire forms of queries, results, and stats.

Two serving boundaries move matching traffic out of the caller's
address space — the :class:`~repro.serving.executors.ProcessExecutor`
task queue and the JSON-over-HTTP service — and both need the same
thing: a plain-data form of :class:`~repro.retrieval.queries.MatchQuery`
and of the engine's ``(results, stats)`` answers built from dicts,
lists, strings, and numbers only (picklable *and* JSON-able).

Results travel as ``[pattern_id, distance, alignment]`` triples: the
pattern records themselves stay wherever an archive copy lives, and
:func:`results_from_wire` re-attaches them through a caller-supplied
resolver (typically ``base.get``). Distances are produced by the same
code on either side of the boundary, so a round trip is bit-exact —
the executor-parity suite pins merged answers byte for byte across
serial and process modes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.archive.pattern_base import ArchivedPattern
from repro.config import as_integer
from repro.core.serialize import sgs_from_dict, sgs_to_dict
from repro.matching.metric import DistanceMetricSpec
from repro.retrieval.engine import EngineStats, MatchResult
from repro.retrieval.queries import MatchQuery

__all__ = [
    "metric_from_wire",
    "metric_to_wire",
    "query_from_wire",
    "query_to_wire",
    "results_from_wire",
    "results_to_wire",
    "stats_from_wire",
    "stats_to_wire",
]


def metric_to_wire(spec: DistanceMetricSpec) -> Dict[str, object]:
    return {
        "position_sensitive": spec.position_sensitive,
        "weights": dict(spec.weights),
    }


def metric_from_wire(data: Dict[str, object]) -> DistanceMetricSpec:
    return DistanceMetricSpec(
        position_sensitive=bool(data["position_sensitive"]),
        weights={
            str(name): float(value)
            for name, value in data["weights"].items()
        },
    )


def query_to_wire(query: MatchQuery) -> Dict[str, object]:
    return {
        "sgs": sgs_to_dict(query.sgs),
        "threshold": query.threshold,
        "top_k": query.top_k,
        "metric": metric_to_wire(query.metric),
        "window_range": (
            list(query.window_range)
            if query.window_range is not None
            else None
        ),
        "feature_ranges": (
            {name: list(span) for name, span in query.feature_ranges.items()}
            if query.feature_ranges
            else None
        ),
        "coarse_level": query.coarse_level,
    }


def query_from_wire(
    data: Dict[str, object],
    default_metric: Optional[DistanceMetricSpec] = None,
) -> MatchQuery:
    """Parse a wire query strictly: a field of the wrong type or shape,
    or a fractional ``coarse_level`` / ``window_range`` bound, raises
    ``TypeError`` / ``ValueError`` / ``KeyError`` instead of being
    coerced. ``default_metric`` stands in for an absent ``metric``."""
    if not isinstance(data, dict):
        raise TypeError("query must be a JSON object")
    for name in ("sgs", "threshold"):
        if name not in data:
            raise ValueError(f"query is missing {name!r}")
    top_k = data.get("top_k")
    if top_k is not None and (
        isinstance(top_k, bool) or not isinstance(top_k, int)
    ):
        raise ValueError(f"top_k must be an integer, not {top_k!r}")
    feature_ranges = data.get("feature_ranges")
    if feature_ranges is not None and not (
        isinstance(feature_ranges, dict)
        and all(
            isinstance(span, (list, tuple)) and len(span) == 2
            for span in feature_ranges.values()
        )
    ):
        raise ValueError(
            "feature_ranges must map feature names to [lo, hi] pairs"
        )
    window_range = data.get("window_range")
    metric = data.get("metric")
    if metric is None and default_metric is None:
        raise ValueError("query is missing 'metric'")
    return MatchQuery(
        sgs=sgs_from_dict(data["sgs"]),
        threshold=float(data["threshold"]),
        top_k=top_k,
        metric=(
            metric_from_wire(metric) if metric is not None else default_metric
        ),
        window_range=(
            (
                as_integer("window_range", window_range[0]),
                as_integer("window_range", window_range[1]),
            )
            if window_range is not None
            else None
        ),
        feature_ranges=(
            {
                str(name): (float(span[0]), float(span[1]))
                for name, span in feature_ranges.items()
            }
            if feature_ranges
            else None
        ),
        coarse_level=as_integer("coarse_level", data.get("coarse_level", 0)),
    )


def results_to_wire(
    results: Sequence[MatchResult],
) -> List[List[object]]:
    return [
        [r.pattern.pattern_id, r.distance, list(r.alignment)]
        for r in results
    ]


def results_from_wire(
    data: Sequence[Sequence[object]],
    resolve: Callable[[int], Optional[ArchivedPattern]],
) -> List[MatchResult]:
    results: List[MatchResult] = []
    for pattern_id, distance, alignment in data:
        pattern = resolve(int(pattern_id))
        if pattern is None:
            raise KeyError(
                f"result pattern {pattern_id} is not in the local archive"
            )
        results.append(
            MatchResult(pattern, float(distance), tuple(alignment))
        )
    return results


#: The integer phase counters of :class:`EngineStats`, in wire order.
_STAT_COUNTERS: Tuple[str, ...] = (
    "screened",
    "feature_filtered",
    "coarse_evaluated",
    "coarse_rejected",
    "coarse_fast_accepted",
    "refined",
    "matches",
)


def stats_to_wire(stats: EngineStats) -> Dict[str, object]:
    wire: Dict[str, object] = {
        "archive_size": stats.archive_size,
        "plan": dict(stats.plan),
        "coarse_screen": stats.coarse_screen,
    }
    for name in _STAT_COUNTERS:
        wire[name] = getattr(stats, name)
    return wire


def stats_from_wire(data: Dict[str, object]) -> EngineStats:
    stats = EngineStats(
        archive_size=int(data["archive_size"]),
        plan=dict(data["plan"]),
    )
    stats.coarse_screen = str(data.get("coarse_screen", ""))
    for name in _STAT_COUNTERS:
        setattr(stats, name, int(data.get(name, 0)))
    return stats
