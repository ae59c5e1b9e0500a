"""Generic synthetic streams for tests and controlled experiments.

These produce raw coordinate tuples; wrap them in
:class:`~repro.streams.source.ListSource` (or iterate
:meth:`DriftingBlobStream.objects`) to obtain stream objects.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional, Tuple

from repro.streams.objects import StreamObject

Point = Tuple[float, ...]


class DriftingBlobStream:
    """An endless stream of points drawn from slowly drifting blobs.

    Each emitted point comes from one of ``n_blobs`` Gaussian blobs (with
    probability ``1 - noise_fraction``) or from uniform background noise.
    Blob centers random-walk inside the bounding box, so the clusters a
    sliding window sees move, merge, and split over time — the structural
    churn C-SGS's lifespan maintenance must absorb.
    """

    def __init__(
        self,
        n_blobs: int = 3,
        dimensions: int = 2,
        std: float = 0.4,
        drift: float = 0.02,
        noise_fraction: float = 0.3,
        lows: Optional[Point] = None,
        highs: Optional[Point] = None,
        seed: Optional[int] = 0,
    ):
        if not 0 <= noise_fraction <= 1:
            raise ValueError("noise_fraction must be in [0, 1]")
        self.dimensions = dimensions
        self.std = std
        self.drift = drift
        self.noise_fraction = noise_fraction
        self.lows = lows if lows is not None else (0.0,) * dimensions
        self.highs = highs if highs is not None else (10.0,) * dimensions
        self._rng = random.Random(seed)
        self._centers = [
            [
                self._rng.uniform(low, high)
                for low, high in zip(self.lows, self.highs)
            ]
            for _ in range(n_blobs)
        ]

    def _step_centers(self) -> None:
        for center in self._centers:
            for i in range(self.dimensions):
                center[i] += self._rng.gauss(0.0, self.drift)
                center[i] = min(max(center[i], self.lows[i]), self.highs[i])

    def points(self, n: int) -> Iterator[Point]:
        """Yield ``n`` coordinate tuples."""
        for _ in range(n):
            self._step_centers()
            if self._rng.random() < self.noise_fraction:
                yield tuple(
                    self._rng.uniform(low, high)
                    for low, high in zip(self.lows, self.highs)
                )
            else:
                center = self._rng.choice(self._centers)
                yield tuple(
                    self._rng.gauss(c, self.std) for c in center
                )

    def objects(self, n: int, start_oid: int = 0) -> Iterator[StreamObject]:
        """Yield ``n`` stream objects with sequential oids."""
        for i, coords in enumerate(self.points(n)):
            yield StreamObject(start_oid + i, coords)
