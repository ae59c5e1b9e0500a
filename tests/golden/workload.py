"""The golden C-SGS workloads: seeded Figure-7-style runs, serialized.

Each golden fixture pins the *complete* window-by-window C-SGS output —
cluster memberships and SGS summaries — for a small seeded STT-like 4-D
stream (the paper's Figure-7 configurations, scaled down). Every
neighbor-search backend × kernel arm (the ``kernel_arm`` fixture) must
reproduce each serialized file byte-for-byte; any change to the
refinement kernels, the provider
seam, candidate gathering, or the C-SGS pipeline that alters output in
any way trips it.

Two cases are pinned: ``stt_small`` (θr=0.1, θc=8 — the paper's middle
parameter case, canonical run on the grid backend) and ``stt_auto``
(θr=0.2, θc=5). The second was first generated through the retired
adaptive backend, which ran this 4-D workload on the k-d tree; its
canonical producer is now the k-d tree itself, and the file is
unchanged.

Regenerating (only after an *intentional* output change)::

    PYTHONPATH=src python tests/golden/regen_golden.py

which rewrites the fixture files from each case's canonical run and
prints digests to eyeball in review.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from repro.archive.archiver import PatternArchiver
from repro.archive.pattern_base import PatternBase
from repro.archive.persistence import load_pattern_base
from repro.core.csgs import CSGS
from repro.data.stt import STTStream
from repro.matching.metric import DistanceMetricSpec
from repro.retrieval import (
    MatchEngine,
    MatchQuery,
    ShardedMatchEngine,
    ShardedPatternBase,
)
from repro.streams.source import ListSource
from repro.streams.windows import CountBasedWindowSpec, Windower
from tests.helpers import on_backend, roundtrip_bytes

DIMENSIONS = 4


@dataclass(frozen=True)
class GoldenCase:
    """One pinned workload: parameters + canonical producer."""

    name: str
    theta_range: float
    theta_count: int
    win: int
    slide: int
    windows: int
    seed: int
    filename: str
    canonical_backend: str

    @property
    def path(self) -> Path:
        return Path(__file__).with_name(self.filename)

    @property
    def point_count(self) -> int:
        return self.win + (self.windows - 1) * self.slide


CASES: Dict[str, GoldenCase] = {
    case.name: case
    for case in (
        GoldenCase(
            "stt_small", 0.1, 8, 200, 100, 6, 7,
            "csgs_stt_small.json", "grid",
        ),
        GoldenCase(
            "stt_auto", 0.2, 5, 240, 120, 5, 11,
            "csgs_stt_auto.json", "kdtree",
        ),
    )
}

#: Backward-compatible aliases for the original single case.
_SMALL = CASES["stt_small"]
THETA_RANGE = _SMALL.theta_range
THETA_COUNT = _SMALL.theta_count
WIN = _SMALL.win
SLIDE = _SMALL.slide
WINDOWS = _SMALL.windows
SEED = _SMALL.seed
GOLDEN_PATH = _SMALL.path


def workload_points(case: GoldenCase = _SMALL) -> List[tuple]:
    count = case.point_count
    return list(STTStream(total_records=count, seed=case.seed).points(count))


def run_trace(backend: str, case: GoldenCase = _SMALL) -> List[dict]:
    """Window-by-window C-SGS output in canonical (sorted) form."""
    csgs = CSGS(
        case.theta_range,
        case.theta_count,
        DIMENSIONS,
        **on_backend(backend, case.theta_range, DIMENSIONS),
    )
    spec = CountBasedWindowSpec(win=case.win, slide=case.slide)
    trace = []
    for batch in Windower(spec).batches(ListSource(workload_points(case))):
        output = csgs.process_batch(batch)
        trace.append(
            {
                "window": output.window_index,
                "clusters": [
                    {
                        "id": cluster.cluster_id,
                        "core": sorted(o.oid for o in cluster.core_objects),
                        "edge": sorted(o.oid for o in cluster.edge_objects),
                    }
                    for cluster in output.clusters
                ],
                "summaries": [
                    {
                        "cluster_id": sgs.cluster_id,
                        "cells": sorted(
                            [
                                list(cell.location),
                                cell.status.name,
                                cell.population,
                                sorted(map(list, cell.connections)),
                            ]
                            for cell in sgs.cells.values()
                        ),
                    }
                    for sgs in output.summaries
                ],
            }
        )
    return trace


def render(trace: List[dict]) -> str:
    """Canonical byte representation of a trace (what the file holds)."""
    return json.dumps(trace, sort_keys=True, indent=1) + "\n"


# ----------------------------------------------------------------------
# The golden archive-matching workload (third fixture)
# ----------------------------------------------------------------------

#: Fixture pinning the retrieval engine's answers — threshold and top-k
#: matching, both metric modes, coarse entry on and off — over a
#: *persisted* archive built from the Figure-7 ``stt_small`` workload.
MATCH_PATH = Path(__file__).with_name("archive_matches_stt.json")


def build_match_archive(
    case: GoldenCase = _SMALL, store=None
) -> PatternBase:
    """The Pattern Base of the canonical workload run, round-tripped
    through :mod:`repro.archive.persistence` so the fixture pins the
    persisted-archive serving path, not just the in-memory one.

    ``store`` selects the backend the reloaded base lives on (a spec
    like ``"sqlite:PATH"``): the fixtures must stay byte-identical
    across backends — storage is never semantics."""
    base = PatternBase()
    archiver = PatternArchiver(base)
    csgs = CSGS(case.theta_range, case.theta_count, DIMENSIONS)
    spec = CountBasedWindowSpec(win=case.win, slide=case.slide)
    for batch in Windower(spec).batches(ListSource(workload_points(case))):
        archiver.archive_output(csgs.process_batch(batch))
    return load_pattern_base(
        io.BytesIO(roundtrip_bytes(base)), store=store
    )


def run_match_trace(
    case: GoldenCase = _SMALL, store=None
) -> List[dict]:
    """Canonical (sorted, rounded) results of a fixed query panel."""
    base = build_match_archive(case, store=store)
    engine = MatchEngine(base)
    pattern_ids = sorted(p.pattern_id for p in base.all_patterns())
    query_ids = [pattern_ids[0], pattern_ids[len(pattern_ids) // 2]]
    specs = {
        "feature": DistanceMetricSpec(),
        "positional": DistanceMetricSpec(position_sensitive=True),
    }
    trace: List[dict] = []
    for query_id in query_ids:
        query_sgs = base.get(query_id).sgs
        for mode, spec in sorted(specs.items()):
            for coarse in (0, 1):
                for threshold, top_k in ((0.2, None), (0.5, 5)):
                    query = MatchQuery(
                        sgs=query_sgs,
                        threshold=threshold,
                        top_k=top_k,
                        metric=spec,
                        coarse_level=coarse,
                    )
                    results, stats = engine.match(query)
                    trace.append(
                        {
                            "query": query_id,
                            "mode": mode,
                            "coarse": coarse,
                            "threshold": threshold,
                            "top": top_k,
                            "entry": stats.entry,
                            "gathered": stats.gathered,
                            "refined": stats.refined,
                            "matches": [
                                [r.pattern.pattern_id, round(r.distance, 12)]
                                for r in results
                            ],
                        }
                    )
    # One window-constrained query pins the history-span predicate.
    query = MatchQuery(
        sgs=base.get(query_ids[0]).sgs,
        threshold=0.5,
        window_range=(1, 3),
    )
    results, stats = engine.match(query)
    trace.append(
        {
            "query": query_ids[0],
            "mode": "feature",
            "coarse": 0,
            "threshold": 0.5,
            "top": None,
            "windows": [1, 3],
            "entry": stats.entry,
            "gathered": stats.gathered,
            "refined": stats.refined,
            "matches": [
                [r.pattern.pattern_id, round(r.distance, 12)]
                for r in results
            ],
        }
    )
    return trace


# ----------------------------------------------------------------------
# The golden sharded-serving workload (fourth fixture)
# ----------------------------------------------------------------------

#: Fixture pinning partition-parallel ``match_many`` serving — both
#: partition keys over a *persisted format-v3* archive (inverted
#: cell-signature index at rung 1 maintained during archival) — byte
#: for byte. The per-query matches must equal the single-engine
#: answers of ``archive_matches_stt.json`` exactly: sharding and the
#: inverted screen are pure execution strategy, never semantics.
SHARDED_MATCH_PATH = Path(__file__).with_name(
    "archive_matches_sharded.json"
)

#: Shard counts pinned per partition key (the oracle suite covers the
#: wider {1, 2, 4} × key matrix; the fixture pins bytes for these).
SHARDED_COUNTS = (2, 3)


def build_sharded_v3_archive(
    case: GoldenCase = _SMALL, store=None
) -> PatternBase:
    """The canonical workload archived *with* the inverted index, then
    round-tripped through format v3 — the flat base every pinned shard
    layout partitions. ``store`` selects the reloaded base's backend."""
    base = PatternBase(inverted_levels=(1,))
    archiver = PatternArchiver(base)
    csgs = CSGS(case.theta_range, case.theta_count, DIMENSIONS)
    spec = CountBasedWindowSpec(win=case.win, slide=case.slide)
    for batch in Windower(spec).batches(ListSource(workload_points(case))):
        archiver.archive_output(csgs.process_batch(batch))
    return load_pattern_base(
        io.BytesIO(roundtrip_bytes(base)), store=store
    )


def _sharded_query_panel(base) -> List[dict]:
    """The same (query, mode, coarse, threshold, top) combinations the
    single-engine match fixture pins, as a flat parameter list."""
    pattern_ids = sorted(p.pattern_id for p in base.all_patterns())
    query_ids = [pattern_ids[0], pattern_ids[len(pattern_ids) // 2]]
    specs = {
        "feature": DistanceMetricSpec(),
        "positional": DistanceMetricSpec(position_sensitive=True),
    }
    panel = []
    for query_id in query_ids:
        for mode, spec in sorted(specs.items()):
            for coarse in (0, 1):
                for threshold, top_k in ((0.2, None), (0.5, 5)):
                    panel.append(
                        {
                            "query": query_id,
                            "mode": mode,
                            "coarse": coarse,
                            "threshold": threshold,
                            "top": top_k,
                            "spec": spec,
                        }
                    )
    return panel


def run_sharded_match_trace(
    case: GoldenCase = _SMALL, store=None
) -> List[dict]:
    """Canonical results of batched sharded serving, per partition key
    and pinned shard count."""
    flat = build_sharded_v3_archive(case, store=store)
    panel = _sharded_query_panel(flat)
    trace: List[dict] = []
    for key in ("window", "feature"):
        for shards in SHARDED_COUNTS:
            sharded = ShardedPatternBase.from_base(flat, shards, key)
            engine = ShardedMatchEngine(sharded)
            queries = [
                MatchQuery(
                    sgs=flat.get(entry["query"]).sgs,
                    threshold=entry["threshold"],
                    top_k=entry["top"],
                    metric=entry["spec"],
                    coarse_level=entry["coarse"],
                )
                for entry in panel
            ]
            for entry, (results, stats) in zip(
                panel, engine.match_many(queries)
            ):
                trace.append(
                    {
                        "key": key,
                        "shards": shards,
                        "query": entry["query"],
                        "mode": entry["mode"],
                        "coarse": entry["coarse"],
                        "threshold": entry["threshold"],
                        "top": entry["top"],
                        "entries": stats.plan["entries"],
                        "gathered": stats.gathered,
                        "refined": stats.refined,
                        "coarse_screen": stats.coarse_screen,
                        "matches": [
                            [r.pattern.pattern_id, round(r.distance, 12)]
                            for r in results
                        ],
                    }
                )
    return trace
