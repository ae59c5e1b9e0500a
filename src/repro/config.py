"""Declarative query specifications (Figures 2 and 3).

These dataclasses mirror the paper's query templates so applications can
describe a workload once and hand it to the framework:

* :class:`ContinuousClusteringQuery` —
  ``DETECT DensityBasedClusters(f+s) FROM stream USING θrange, θcnt
  IN Windows WITH win AND slide``
* :class:`ClusterMatchingQuery` —
  ``GIVEN cluster SELECT clusters FROM History
  WHERE Distance <= sim_threshold``
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.index.provider import validate_backend
from repro.matching.metric import DistanceMetricSpec
from repro.streams.windows import (
    CountBasedWindowSpec,
    TimeBasedWindowSpec,
    WindowSpec,
)


def as_integer(name: str, value) -> int:
    """``value`` as an ``int``: integral floats pass, but a bool or a
    fractional number is refused (``int()`` would truncate it)."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)


@dataclass
class ContinuousClusteringQuery:
    """A continuous cluster extraction query (Figure 2).

    ``index_backend`` selects the neighbor-search backend the query
    executes against (``grid`` / ``kdtree``; see
    :mod:`repro.index.provider`).
    """

    theta_range: float
    theta_count: int
    dimensions: int
    window: WindowSpec
    index_backend: str = "grid"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta_range) and self.theta_range > 0):
            raise ValueError("theta_range must be positive and finite")
        for name in ("theta_count", "dimensions"):
            value = as_integer(name, getattr(self, name))
            if value < 1:
                raise ValueError(f"{name} must be at least 1")
            setattr(self, name, value)
        validate_backend(self.index_backend)

    @classmethod
    def count_based(
        cls,
        theta_range: float,
        theta_count: int,
        dimensions: int,
        win: int,
        slide: int,
        index_backend: str = "grid",
    ) -> "ContinuousClusteringQuery":
        return cls(
            theta_range,
            theta_count,
            dimensions,
            CountBasedWindowSpec(win, slide),
            index_backend=index_backend,
        )

    @classmethod
    def time_based(
        cls,
        theta_range: float,
        theta_count: int,
        dimensions: int,
        win: float,
        slide: float,
        origin: float = 0.0,
        index_backend: str = "grid",
    ) -> "ContinuousClusteringQuery":
        return cls(
            theta_range,
            theta_count,
            dimensions,
            TimeBasedWindowSpec(win, slide, origin),
            index_backend=index_backend,
        )


@dataclass
class ClusterMatchingQuery:
    """A cluster matching query (Figure 3).

    ``window_range`` restricts matching to an inclusive span of archived
    window indices; ``coarse_level`` selects the multi-resolution entry
    level of the coarse-to-fine refiner (0 = match stored cells
    directly). Both map one-to-one onto
    :class:`repro.retrieval.queries.MatchQuery` (and onto the textual
    template's ``MATCH WITH`` clause).
    """

    sim_threshold: float
    metric: DistanceMetricSpec = field(default_factory=DistanceMetricSpec)
    top_k: Optional[int] = None
    window_range: Optional[Tuple[int, int]] = None
    coarse_level: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.sim_threshold <= 1:
            raise ValueError("sim_threshold must be in [0, 1]")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be positive when given")
        if self.coarse_level < 0:
            raise ValueError("coarse_level must be non-negative")
        if self.window_range is not None:
            lo, hi = self.window_range
            if lo > hi:
                raise ValueError("window_range must be (lo, hi), lo <= hi")
