"""Output verification — always outside the timed regions.

A run is ``correct`` only if every check recorded here passed:
digests repeat across passes (and match the traced pass, and the
pinned value for the default seed), sampled windows agree with
DBSCAN-from-scratch, sampled match answers agree with the exhaustive
scan. Oracles are the repo's own reference implementations.
"""

from __future__ import annotations

import hashlib
import json
from typing import FrozenSet, Iterable, List, Sequence, Tuple

from repro.clustering.cluster import core_signature
from repro.clustering.dbscan import dbscan
from repro.core.csgs import WindowOutput
from repro.core.features import ClusterFeatures
from repro.core.serialize import sgs_to_dict
from repro.matching.alignment import anytime_alignment_search
from repro.matching.cell_match import cell_level_distance
from repro.matching.metric import cluster_feature_distance
from repro.retrieval.queries import MatchQuery
from repro.streams.objects import StreamObject

Answer = List[Tuple[int, float, Tuple[int, ...]]]


class Checks:
    """The named pass/fail checks of one run."""

    def __init__(self) -> None:
        self.results: List[Tuple[str, bool, str]] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    def equal(self, name: str, got, expected) -> bool:
        ok = got == expected
        return self.record(
            name, ok, "" if ok else f"got {got!r}, expected {expected!r}"
        )

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def no_stream_spans(self, span_names) -> bool:
        """A matching workload must never enter the stream layers."""
        return self.equal(
            "no stream-layer span in a matching workload",
            sorted(
                name for name in span_names
                if name.startswith(("index.", "core.lifespan", "core.csgs"))
            ),
            [],
        )


# ----------------------------------------------------------------------
# Stream outputs
# ----------------------------------------------------------------------


def window_bytes(output: WindowOutput) -> bytes:
    """Canonical bytes of one window: every cluster's core and edge
    memberships and its SGS."""
    return json.dumps(
        [
            output.window_index,
            [
                [
                    sorted(obj.oid for obj in cluster.core_objects),
                    sorted(obj.oid for obj in cluster.edge_objects),
                    sgs_to_dict(sgs),
                ]
                for cluster, sgs in zip(output.clusters, output.summaries)
            ],
        ],
        sort_keys=True,
    ).encode()


class StreamDigest:
    """sha-256 over the windows of a stream run, in emission order."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def update(self, output: WindowOutput, tag: str = "") -> bytes:
        """Absorb one window; returns its canonical bytes."""
        data = window_bytes(output)
        self._hash.update(tag.encode())
        self._hash.update(data)
        return data

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def dbscan_core_signature(
    points: Sequence[Sequence[float]],
    window_index: int,
    win: int,
    slide: int,
    theta_range: float,
    theta_count: int,
) -> FrozenSet[FrozenSet[int]]:
    """Core memberships of count-based window ``window_index`` by
    DBSCAN from scratch (object ids are arrival positions)."""
    first = max(0, (window_index + 1) * slide - win)
    last = min(len(points), (window_index + 1) * slide)
    objects = [StreamObject(i, tuple(points[i])) for i in range(first, last)]
    return core_signature(dbscan(objects, theta_range, theta_count))


# ----------------------------------------------------------------------
# Match answers
# ----------------------------------------------------------------------


def answer_of(results) -> Answer:
    """``(pattern_id, distance, alignment)`` triples of engine results."""
    return [
        (r.pattern.pattern_id, r.distance, tuple(r.alignment)) for r in results
    ]


def answers_digest(answers: Iterable[Answer]) -> str:
    return hashlib.sha256(
        json.dumps([list(map(list, a)) for a in answers]).encode()
    ).hexdigest()


def exhaustive_match(
    patterns, query: MatchQuery, max_expansions: int = 32
) -> Answer:
    """The answer by scanning every pattern: window constraint, the
    cluster-feature filter, then the stored-level cell match — no
    index, no coarse screen (the oracle of tests/test_retrieval_engine)."""
    spec = query.metric
    features = ClusterFeatures.from_sgs(query.sgs)
    mbr = query.sgs.mbr()
    found: Answer = []
    for pattern in patterns:
        if not query.admits_window(pattern.window_index):
            continue
        if spec.position_sensitive and not pattern.mbr.intersects(mbr):
            continue
        if (
            cluster_feature_distance(
                features, pattern.features, spec, mbr, pattern.mbr
            )
            > query.threshold
        ):
            continue
        if spec.position_sensitive:
            distance = cell_level_distance(query.sgs, pattern.sgs, spec, None)
            alignment = (0,) * query.sgs.dimensions
        else:
            search = anytime_alignment_search(
                query.sgs, pattern.sgs, spec, max_expansions=max_expansions
            )
            distance, alignment = search.distance, search.alignment
        if distance <= query.threshold:
            found.append((pattern.pattern_id, distance, tuple(alignment)))
    found.sort(key=lambda item: (item[1], item[0]))
    return found[: query.top_k] if query.top_k is not None else found
