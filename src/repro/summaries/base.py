"""Common interface for post-hoc cluster summarizers.

These implement the two-phase pipelines of Section 8.1 ("Extra-N + X"):
clusters are first extracted in full representation, then each cluster is
compressed into a summary by a separate pass. C-SGS needs no such pass —
its summaries fall out of the extraction itself.
"""

from __future__ import annotations

from typing import Any

from repro.clustering.cluster import Cluster


class ClusterSummarizer:
    """Base class: turn a full cluster representation into a summary."""

    #: short identifier used in experiment tables
    name: str = "base"

    def summarize(self, cluster: Cluster) -> Any:
        raise NotImplementedError
