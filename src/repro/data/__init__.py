"""Synthetic stream generators standing in for the paper's datasets."""

from repro.data.gmti import GMTIStream
from repro.data.stt import STTStream
from repro.data.synthetic import DriftingBlobStream

__all__ = [
    "DriftingBlobStream",
    "GMTIStream",
    "STTStream",
]
