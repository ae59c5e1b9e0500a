"""Naive per-window re-clustering (ablation baseline, experiment E7).

Maintains only the raw window buffer and re-runs static DBSCAN from
scratch at every slide. This is the "prohibitively expensive" strawman
Section 5.2 argues against; the ablation bench quantifies what the
lifespan-based incremental computation buys.
"""

from __future__ import annotations

from typing import List

from repro.clustering.cluster import Cluster
from repro.clustering.dbscan import dbscan
from repro.streams.objects import StreamObject
from repro.streams.windows import WindowBatch


class NaiveWindowClusterer:
    """Re-cluster the full window contents on every slide."""

    def __init__(self, theta_range: float, theta_count: int):
        self.theta_range = float(theta_range)
        self.theta_count = int(theta_count)
        self._buffer: List[StreamObject] = []

    def process_batch(self, batch: WindowBatch) -> List[Cluster]:
        window = batch.index
        self._buffer = [
            obj for obj in self._buffer if obj.last_window >= window
        ]
        self._buffer.extend(batch.new_objects)
        return dbscan(
            self._buffer, self.theta_range, self.theta_count, window
        )
