"""Stream objects (tuples) flowing through sliding windows.

A :class:`StreamObject` is the unit of clustering: a point in a
d-dimensional metric space with a timestamp (time-based windows) and an
arrival sequence number (count-based windows). Window membership — the
pair ``(first_window, last_window)`` — is stamped onto the object by the
:class:`~repro.streams.windows.Windower` when the object enters the query;
everything downstream (lifespan analysis, C-SGS, Extra-N) reads window
membership from these two integers only.
"""

from __future__ import annotations

from typing import Optional, Tuple


class StreamObject:
    """A single stream tuple.

    Attributes:
        oid: unique, monotonically increasing object identifier.
        coords: position in the clustering space. Normalized to floats
            at construction so scalar refinement (Python float) and the
            vectorized coordinate store (float64 columns) compute over
            bit-identical values regardless of the input number types.
        timestamp: event time (seconds, arbitrary epoch). Only meaningful
            for time-based windows; defaults to the arrival order.
        first_window / last_window: inclusive window-index range in which
            this object participates. Stamped by the windower.
        payload: optional opaque application data carried alongside.
    """

    __slots__ = (
        "oid",
        "coords",
        "timestamp",
        "first_window",
        "last_window",
        "payload",
    )

    def __init__(
        self,
        oid: int,
        coords: Tuple[float, ...],
        timestamp: Optional[float] = None,
        payload: object = None,
    ):
        self.oid = oid
        self.coords = tuple(float(value) for value in coords)
        self.timestamp = float(oid if timestamp is None else timestamp)
        self.first_window: int = -1
        self.last_window: int = -1
        self.payload = payload

    @property
    def dimensions(self) -> int:
        return len(self.coords)

    def __repr__(self) -> str:
        return (
            f"StreamObject(oid={self.oid}, coords={self.coords}, "
            f"windows=[{self.first_window},{self.last_window}])"
        )
