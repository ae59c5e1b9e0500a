"""The metric catalogue: names, units and bounds come from the root
``BENCHMARK.json`` (the one place the driver reads); this module adds
what that file has no room for — which end-to-end metric each layer
metric is expected to move, and on which workload — and checks at
start-up that the two agree name for name.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List

from .measure import ROOT

NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

_STREAMS = "stream-gmti, stream-stt-sqlite"

#: ``layer metric -> the end-to-end metric it should move, and where``.
#: Written down before measuring (choosing-metrics, section 3); a later
#: change that claims a gain names the rows it expects to move.
MOVES: Dict[str, str] = {
    "streams.windows.batch_ms": f"ops_per_s on {_STREAMS} (expected negligible)",
    "streams.windows.points": "size of the traced pass (fixed by the workload)",
    "streams.windows.windows": "size of the traced pass (fixed by the workload)",
    "index.insert_ms": f"ops_per_s on {_STREAMS}",
    "index.purge_ms": f"ops_per_s, op_p90_ms on {_STREAMS}",
    "index.range_query_ms": "ops_per_s on stream-stt-sqlite first, stream-gmti second; none on match-panel",
    "index.credit_ms": f"ops_per_s on {_STREAMS}",
    "index.range_queries": "one per point: must repeat exactly",
    "index.candidates": "index.range_query_ms (work examined per query)",
    "index.neighbors": "core.lifespan.ingest_ms (neighbours handed on)",
    "index.useful_ratio": "index.range_query_ms: neighbours / candidates examined",
    "core.lifespan.ingest_ms": f"ops_per_s, op_p50_ms on {_STREAMS}; six-fold inside multiplex.scheduler.rest_ms",
    "core.lifespan.neighbor_updates": "core.lifespan.ingest_ms (histogram updates)",
    "core.csgs.begin_ms": f"op_p90_ms on {_STREAMS}",
    "core.csgs.emit_ms": "op_p90_ms on stream-gmti (one emit per 100 points)",
    "core.csgs.clusters": "core.csgs.emit_ms, archive.archiver.patterns",
    "core.csgs.cells": "core.csgs.emit_ms, archive.store.bytes_per_pattern",
    "core.csgs.state_bytes_peak": f"peak_rss_mb on {_STREAMS}",
    "archive.archiver.archive_ms": "op_p90_ms on stream-gmti, stream-stt-sqlite",
    "archive.archiver.patterns": "must repeat exactly",
    "archive.store.ingest_ms": "op_p90_ms on stream-stt-sqlite (one transaction per pattern); ops.ingest_p50_ms on serve-http",
    "archive.store.db_bytes": "archive.store.bytes_per_pattern",
    "archive.store.bytes_per_pattern": "disk per archived pattern on stream-stt-sqlite, serve-http",
    "archive.store.open_ms": "setup_s on match-panel, serve-http",
    "archive.store.hydrate_ms": "op_p50_ms, op_p90_ms on match-panel (archive larger than the LRU)",
    "archive.store.hydrations": "archive.store.hydrate_ms",
    "archive.store.cache_hits": "archive.store.hydrate_ms",
    "archive.store.evictions": "archive.store.hydrate_ms, peak_rss_mb on match-panel",
    "multiplex.scheduler.batch_ms": "ops_per_s, op_p50_ms on multiplex-k6 only",
    "multiplex.provider.pass_ms": "ops_per_s on multiplex-k6 (the shared range-query pass)",
    "multiplex.scheduler.rest_ms": "ops_per_s on multiplex-k6 (rung cut + 6x ingest + emit + fan-out)",
    "multiplex.provider.range_queries": "must repeat exactly; one per point however many queries",
    "multiplex.provider.range_query_batches": "must repeat exactly; one per slide",
    "multiplex.provider.gather_builds": "setup_s on multiplex-k6",
    "multiplex.provider.candidates": "multiplex.provider.pass_ms, multiplex.scheduler.rest_ms",
    "multiplex.scheduler.cohorts": "multiplex.scheduler.rest_ms (pipelines fed per batch)",
    "multiplex.registry.deliveries": "must repeat exactly; outputs handed to sinks",
    "multiplex.sharing_ratio": "multiplex.provider.pass_ms: independent / shared range queries",
    "retrieval.planner.plan_ms": "op_p50_ms on match-panel",
    "retrieval.planner.gather_ms": "op_p50_ms on match-panel; ops.ps_match_p50_ms (R-tree probe)",
    "retrieval.planner.screen_ms": "op_p50_ms on match-panel",
    "retrieval.planner.gathered": "retrieval.planner.screen_ms",
    "retrieval.planner.screened": "matching.metric.feature_ms",
    "retrieval.inverted.screen_ms": "op_p50_ms on match-panel (coarse_level 1 half)",
    "retrieval.inverted.evaluated": "retrieval.inverted.screen_ms",
    "retrieval.inverted.rejected": "matching.alignment.refined (alignments saved)",
    "retrieval.engine.ladder_ms": "ops.ps_match_p50_ms on match-panel, serve-http",
    "retrieval.engine.ladder_evaluated": "retrieval.engine.ladder_ms",
    "retrieval.engine.ladder_rejected": "matching.cell_match.distance_ms (cell matches saved)",
    "retrieval.engine.unattributed_ms": "what the staged replay could not name (loop, sort, result building)",
    "matching.metric.feature_ms": "op_p50_ms on match-panel",
    "matching.metric.feature_passed": "matching.alignment.refined",
    "matching.alignment.align_ms": "op_p50_ms, op_p90_ms, ops_per_s on match-panel and serve-http",
    "matching.alignment.refined": "matching.alignment.align_ms; must repeat exactly",
    "matching.alignment.matches": "must repeat exactly",
    "matching.alignment.useful_ratio": "matches / refined: alignments that ended in a match",
    "matching.cell_match.distance_ms": "ops.ps_match_p50_ms on match-panel, serve-http",
    "core.serialize.parse_ms": "op_p50_ms, ops_per_s on serve-http",
    "serving.wire.encode_ms": "op_p50_ms on serve-http (process boundary)",
    "serving.wire.request_bytes": "core.serialize.parse_ms, serving.httpd.overhead_ms",
    "serving.wire.response_bytes": "serving.httpd.overhead_ms",
    "serving.service.match_ms": "op_p50_ms on serve-http (the engine's share of a request)",
    "serving.httpd.overhead_ms": "ops.ps_match_p50_ms, ops.ingest_p50_ms on serve-http (overhead-bound)",
    "serving.service.lock_wait_ms": "op_p50_ms, op_p90_ms on serve-http (requests serialise on MatchService._lock)",
    "serving.executors.hydrate_ms": "setup_s on serve-http",
    "serving.executors.dispatch_ms": "op_p50_ms on serve-http",
    "serving.executors.shard_skew": "op_p50_ms on serve-http: the slower shard sets the answer time",
    "serving.executors.restarts": "failed operations on serve-http (expected 0)",
    "serving.executors.failovers": "failed operations on serve-http (expected 0)",
    "serving.merge.merge_ms": "op_p50_ms on serve-http",
    "ops.ps_match_p50_ms": "position-sensitive match latency (untraced pass of the traced run) on match-panel, serve-http",
    "ops.ingest_p50_ms": "POST /ingest round trip (untraced pass of the traced run) on serve-http",
    "trace.wall_ms": "wall time of the traced pass",
    "trace.unattributed_ms": "traced wall time no layer span covers",
    "trace.overhead_share": "(traced wall - untraced wall) / untraced wall",
}


def load() -> dict:
    """Read and validate ``BENCHMARK.json``; every name well-formed and
    unique, and the layer metrics exactly those of :data:`MOVES`."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    names: List[str] = []
    for section in ("workloads", "end_to_end", "per_layer"):
        names.extend(entry["name"] for entry in spec[section])
    for name in names:
        if not NAME_PATTERN.match(name):
            raise ValueError(f"malformed name in BENCHMARK.json: {name!r}")
    if len(set(names)) != len(names):
        raise ValueError("BENCHMARK.json uses a name twice")
    layer_names = {entry["name"] for entry in spec["per_layer"]}
    if layer_names != set(MOVES):
        raise ValueError(
            "BENCHMARK.json per_layer and catalog.MOVES disagree: "
            f"{sorted(layer_names ^ set(MOVES))}"
        )
    return spec


def format_metrics(spec: dict, section: str, values: Dict[str, float]) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the metrics of one
    section. An unknown name is an error; so is a missing end-to-end
    metric. A layer metric the workload does not exercise reads 0."""
    known = {entry["name"]: entry["unit"] for entry in spec[section]}
    unknown = set(values) - set(known)
    if unknown:
        raise ValueError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    if section == "end_to_end":
        missing = set(known) - set(values)
        if missing:
            raise ValueError(f"end-to-end metrics not measured: {sorted(missing)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in known.items()
    }
