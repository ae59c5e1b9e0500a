"""Approximate full-representation regeneration from an SGS.

The paper's introduction lists "full representation re-generation
techniques based on pattern summarizations" among the uses of an
effective summary. Because SGS records, per non-overlapping cell, the
exact member population (Lemma 4.4), a faithful synthetic stand-in for
the original members can be produced by drawing each cell's population
uniformly inside the cell — the location error of any regenerated point
is bounded by the cell diagonal (= θr at level 0, Lemma 4.3), and the
density distribution is reproduced exactly at cell granularity.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.clustering.cluster import Cluster
from repro.core.sgs import SGS
from repro.streams.objects import StreamObject

Point = Tuple[float, ...]


def regenerate_cluster(
    sgs: SGS, seed: Optional[int] = 0, start_oid: int = 0
) -> Cluster:
    """Regenerate an approximate :class:`Cluster` from a summary.

    Points drawn in core cells become the core objects, points in edge
    cells the edge objects — matching the status granularity SGS keeps.
    """
    rng = random.Random(seed)
    cores: List[StreamObject] = []
    edges: List[StreamObject] = []
    oid = start_oid
    for cell in sgs.cells.values():
        lows = cell.lows()
        highs = cell.highs()
        for _ in range(cell.population):
            obj = StreamObject(
                oid,
                tuple(
                    rng.uniform(low, high)
                    for low, high in zip(lows, highs)
                ),
            )
            obj.first_window = obj.last_window = sgs.window_index
            oid += 1
            (cores if cell.is_core else edges).append(obj)
    return Cluster(sgs.cluster_id, cores, edges, sgs.window_index)
