"""Deterministic byte-cost models for every representation format.

Python object overheads would swamp any memory comparison, so — like the
paper, which reports the serialized sizes of its C++ structs — all memory
numbers in the benches come from explicit cost models:

* **SGS cell** (Section 8.2's accounting): ``4 * d`` bytes location
  (one int32 per dimension) + 1 byte status + 4 bytes population +
  2 bytes connection bitmap. For d = 4 this is the paper's 23 bytes
  per skeletal grid cell.
* **Full representation**: ``4 * d`` bytes of float32 coordinates +
  4 bytes object id per member tuple.
* **CRD**: centroid (4 per dim) + radius + density + population.
* **RSP**: ``4 * d`` bytes per sampled point (+ population counter).
* **SkPS**: ``4 * d`` per skeletal point + 4 bytes per edge.
"""

from __future__ import annotations

from typing import Union

from repro.clustering.cluster import Cluster
from repro.core.sgs import SGS
from repro.summaries.crd import CRD
from repro.summaries.rsp import RSP
from repro.summaries.skps import SkPS

SGS_CELL_FIXED_BYTES = 1 + 4 + 2  # status + population + connection bitmap
PER_MEMBER_ID_BYTES = 4
PER_COORDINATE_BYTES = 4


def sgs_cell_bytes(dimensions: int) -> int:
    """Bytes per skeletal grid cell (23 for the paper's 4-D setting)."""
    return PER_COORDINATE_BYTES * dimensions + SGS_CELL_FIXED_BYTES


def sgs_bytes(sgs: SGS) -> int:
    """Serialized size of one SGS."""
    return len(sgs) * sgs_cell_bytes(sgs.dimensions)


def full_representation_bytes(
    cluster: Union[Cluster, int], dimensions: int
) -> int:
    """Serialized size of a cluster's full representation."""
    members = cluster if isinstance(cluster, int) else cluster.size
    return members * (PER_COORDINATE_BYTES * dimensions + PER_MEMBER_ID_BYTES)


def crd_bytes(crd: CRD) -> int:
    return PER_COORDINATE_BYTES * crd.dimensions + 4 + 4 + 4


def rsp_bytes(rsp: RSP) -> int:
    return rsp.sample_size * PER_COORDINATE_BYTES * rsp.dimensions + 4


def skps_bytes(skps: SkPS) -> int:
    dims = len(skps.points[0]) if skps.points else 0
    return (
        skps.size * PER_COORDINATE_BYTES * dims + len(skps.edges) * 4
    )


def tracker_state_bytes(sizes: dict, dimensions: int) -> int:
    """Bytes of the shared lifespan-tracker state.

    Per alive object: coordinates + id + core_until; plus 8 bytes per
    neighbor-histogram entry and 4 bytes per non-core-career neighbor
    reference (the theta_count-bounded auxiliary meta-data). Saturated
    objects (core career as long as their lifespan) carry neither: their
    histogram is released, so ``hist_entries`` counts live ones only.
    """
    per_object = PER_COORDINATE_BYTES * dimensions + PER_MEMBER_ID_BYTES + 4
    return (
        sizes["objects"] * per_object
        + sizes["hist_entries"] * 8
        + sizes["noncore_entries"] * 4
    )


def csgs_state_bytes(csgs) -> int:
    """Model bytes of C-SGS state: tracker + skeletal-grid meta-data.

    Cells carry their coordinate plus status/population lifespans; each
    connection/attachment is a packed neighbor offset plus its lifespan
    (8 bytes), matching the paper's per-cell bitmap + lifespan-indicator
    accounting (Section 5.3).
    """
    sizes = csgs.state_sizes()
    dims = csgs.dimensions
    cell_bytes = sizes["cells"] * (PER_COORDINATE_BYTES * dims + 8)
    connection_bytes = (
        sizes["core_connections"] + sizes["edge_attachments"]
    ) * 8
    return tracker_state_bytes(sizes, dims) + cell_bytes + connection_bytes


def extra_n_state_bytes(extra_n) -> int:
    """Model bytes of Extra-N state: tracker + per-view membership.

    Each (object, view) union-find entry costs 8 bytes; the number of
    views is win/slide, which is where Extra-N's memory dependence on the
    slide size comes from.
    """
    sizes = extra_n.state_sizes()
    return tracker_state_bytes(sizes, extra_n.dimensions) + (
        sizes["view_entries"] * 8
    )
