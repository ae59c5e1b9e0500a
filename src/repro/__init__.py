"""repro — Summarization and Matching of Density-Based Clusters in
Streaming Environments.

A from-scratch Python implementation of the VLDB 2011 system by Yang,
Rundensteiner & Ward: Skeletal Grid Summarization (SGS), the integrated
C-SGS extraction+summarization algorithm with lifespan analysis, the
multi-resolution Pattern Archiver, the dual-indexed Pattern Base, and the
filter-and-refine Pattern Analyzer — plus the baselines the paper
evaluates against (Extra-N, CRD, RSP, SkPS).

Quickstart::

    from repro import (
        ContinuousClusteringQuery, StreamPatternMiningSystem,
        DriftingBlobStream,
    )

    query = ContinuousClusteringQuery.count_based(
        theta_range=0.3, theta_count=5, dimensions=2, win=500, slide=100,
    )
    system = StreamPatternMiningSystem.from_query(query)
    stream = DriftingBlobStream(seed=1)
    for output in system.run_steps(stream.objects(5000)):
        print(output.window_index, len(output.clusters))

The package root carries the names the examples, the README and the
integration tests start from; everything else is imported from its
subpackage.
"""

from repro.clustering.cluster import partition_signature
from repro.clustering.dbscan import dbscan
from repro.config import ContinuousClusteringQuery
from repro.core.csgs import CSGS
from repro.core.multires import coarsen_sgs
from repro.core.regenerate import regenerate_cluster
from repro.core.serialize import sgs_from_bytes, sgs_to_bytes
from repro.data.gmti import GMTIStream
from repro.data.stt import STTStream
from repro.data.synthetic import DriftingBlobStream
from repro.matching.metric import DistanceMetricSpec
from repro.query.parser import parse_query
from repro.streams.windows import (
    CountBasedWindowSpec,
    TimeBasedWindowSpec,
    Windower,
)
from repro.system.framework import StreamPatternMiningSystem

__version__ = "1.0.0"

__all__ = [
    "CSGS",
    "ContinuousClusteringQuery",
    "CountBasedWindowSpec",
    "DistanceMetricSpec",
    "DriftingBlobStream",
    "GMTIStream",
    "STTStream",
    "StreamPatternMiningSystem",
    "TimeBasedWindowSpec",
    "Windower",
    "coarsen_sgs",
    "dbscan",
    "parse_query",
    "partition_signature",
    "regenerate_cluster",
    "sgs_from_bytes",
    "sgs_to_bytes",
]
