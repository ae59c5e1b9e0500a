"""Skeletal Point Summarization (SkPS) — the paper's initial design
(Section 4.2), kept as an evaluated alternative.

An SkPS is a graph whose vertices are a minimal set of connected core
objects ("skeletal points") whose θr-neighborhoods jointly cover the
whole cluster, and whose edges are the neighbor relations among them.
Finding a minimum such set is the connected dominating set problem
(NP-complete), so — as in the paper's experiments — we compute an
*approximate* SkPS with the greedy MG algorithm of Guha & Khuller:
grow a connected black set from the highest-coverage core object, always
extending through a covered (gray) core object that covers the most
still-uncovered objects.

This construction is intentionally faithful to its cost profile: it
needs the cluster's core-object neighbor graph, so summarizing one
cluster is far more expensive than CRD/RSP/SGS — which is exactly the
overhead Figure 7 shows for "Extra-N + SkPS".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.clustering.cluster import Cluster
from repro.index.grid_index import GridIndex
from repro.summaries.base import ClusterSummarizer


@dataclass(frozen=True)
class SkPS:
    """Skeletal point set: vertices (coords) + undirected edges."""

    points: Tuple[Tuple[float, ...], ...]
    edges: FrozenSet[Tuple[int, int]]
    population: int

    @property
    def size(self) -> int:
        return len(self.points)

class SkPSSummarizer(ClusterSummarizer):
    """Greedy (MG-style) connected-dominating-set summarization."""

    name = "SkPS"

    def __init__(self, theta_range: float):
        if theta_range <= 0:
            raise ValueError("theta_range must be positive")
        self.theta_range = float(theta_range)

    def summarize(self, cluster: Cluster) -> SkPS:
        members = cluster.members
        if not members:
            raise ValueError("cannot summarize an empty cluster")
        dims = members[0].dimensions
        index = GridIndex(self.theta_range, dims)
        index.bulk_load(members)

        core_oids = {obj.oid for obj in cluster.core_objects}
        # Neighborhoods restricted to cluster members.
        coverage: Dict[int, Set[int]] = {}
        core_adjacency: Dict[int, List[int]] = {}
        for obj in cluster.core_objects:
            neighbors = index.range_query(obj.coords, exclude_oid=obj.oid)
            coverage[obj.oid] = {nb.oid for nb in neighbors}
            coverage[obj.oid].add(obj.oid)
            core_adjacency[obj.oid] = [
                nb.oid for nb in neighbors if nb.oid in core_oids
            ]

        uncovered: Set[int] = {obj.oid for obj in members}
        if not cluster.core_objects:
            raise ValueError("a density-based cluster must have core objects")

        # Seed: the core object covering the most members.
        seed = max(coverage, key=lambda oid: len(coverage[oid] & uncovered))
        black: List[int] = [seed]
        black_set: Set[int] = {seed}
        uncovered -= coverage[seed]
        # Gray frontier: core objects covered by (neighbors of) the black set.
        frontier: Set[int] = {
            oid for oid in core_adjacency[seed] if oid not in black_set
        }

        while uncovered:
            best = None
            best_gain = -1
            for oid in frontier:
                gain = len(coverage[oid] & uncovered)
                if gain > best_gain:
                    best_gain = gain
                    best = oid
            if best is None or best_gain <= 0:
                # All remaining uncovered members are edge objects hanging
                # off core objects not yet reachable with positive gain;
                # extend through any frontier core with nonzero frontier
                # growth to keep the set connected.
                if not frontier:
                    break
                best = next(iter(frontier))
            black.append(best)
            black_set.add(best)
            uncovered -= coverage[best]
            frontier.discard(best)
            for oid in core_adjacency[best]:
                if oid not in black_set:
                    frontier.add(oid)

        by_oid = {obj.oid: obj for obj in members}
        points = tuple(by_oid[oid].coords for oid in black)
        position = {oid: i for i, oid in enumerate(black)}
        edges: Set[Tuple[int, int]] = set()
        for oid in black:
            for other in core_adjacency[oid]:
                if other in black_set:
                    a, b = position[oid], position[other]
                    if a != b:
                        edges.add((min(a, b), max(a, b)))
        return SkPS(points, frozenset(edges), population=len(members))
