"""Evaluation substrate: byte-cost models, oracle judge, harness utils."""

from repro.eval.memory import (
    crd_bytes,
    full_representation_bytes,
    rsp_bytes,
    sgs_bytes,
    skps_bytes,
)
from repro.eval.oracle import oracle_similarity

__all__ = [
    "crd_bytes",
    "full_representation_bytes",
    "oracle_similarity",
    "rsp_bytes",
    "sgs_bytes",
    "skps_bytes",
]
