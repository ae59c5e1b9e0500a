"""Static density-based clustering (Ester et al., KDD 1996).

This is the from-scratch, per-window oracle: every incremental algorithm
in the package (C-SGS, Extra-N) must produce exactly the clusters this
function produces on the window contents (footnote 3 of the paper — all
algorithms following the KDD'96 definition agree on the result).

Definition 3.1 conventions used throughout the package:

* ``NumNeigh(p, θr)`` counts neighbors *excluding* ``p`` itself;
* ``p`` is **core** when ``NumNeigh(p, θr) >= θc``;
* a non-core neighbor of a core object is an **edge** object and belongs
  to the cluster of *every* core object it neighbors;
* everything else is noise.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.clustering.cluster import Cluster
from repro.index.grid_index import GridIndex
from repro.streams.objects import StreamObject


def dbscan(
    objects: Sequence[StreamObject],
    theta_range: float,
    theta_count: int,
    window_index: int = -1,
) -> List[Cluster]:
    """Cluster a static object set; returns clusters (noise omitted).

    Uses a uniform grid index for neighbor search, so the expected cost is
    ``O(n * k)`` with ``k`` the average neighborhood size.
    """
    if theta_count < 1:
        raise ValueError("theta_count must be at least 1")
    objects = list(objects)
    if not objects:
        return []
    dims = objects[0].dimensions
    index = GridIndex(theta_range, dims)
    index.bulk_load(objects)

    neighbor_counts: Dict[int, int] = {}
    for obj in objects:
        neighbor_counts[obj.oid] = len(
            index.range_query(obj.coords, exclude_oid=obj.oid)
        )
    core_oids: Set[int] = {
        oid for oid, count in neighbor_counts.items() if count >= theta_count
    }

    by_oid = {obj.oid: obj for obj in objects}
    cluster_of: Dict[int, int] = {}
    clusters: List[Cluster] = []
    next_id = 0

    for obj in objects:
        if obj.oid not in core_oids or obj.oid in cluster_of:
            continue
        # Breadth-first expansion over connected core objects.
        core_members: List[StreamObject] = []
        frontier = [obj]
        cluster_of[obj.oid] = next_id
        while frontier:
            current = frontier.pop()
            core_members.append(current)
            for neighbor in index.range_query(
                current.coords, exclude_oid=current.oid
            ):
                if neighbor.oid in core_oids and neighbor.oid not in cluster_of:
                    cluster_of[neighbor.oid] = next_id
                    frontier.append(neighbor)
        clusters.append(Cluster(next_id, core_members, [], window_index))
        next_id += 1

    # Attach edge objects to every cluster whose core they neighbor.
    for obj in objects:
        if obj.oid in core_oids:
            continue
        attached: Set[int] = set()
        for neighbor in index.range_query(obj.coords, exclude_oid=obj.oid):
            if neighbor.oid in core_oids:
                attached.add(cluster_of[neighbor.oid])
        for cluster_id in attached:
            clusters[cluster_id].edge_objects.append(obj)

    return clusters
