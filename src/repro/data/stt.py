"""STT-like stock transaction stream (substitute for the INET traces).

The paper's STT dataset is one trading day of stock transaction records
(~1M tuples); clustering runs over four dimensions — transaction type
(buy/sell), price, volume, and time. The original source is defunct, so
this generator reproduces the behaviour the evaluation needs: *intensive
transaction areas* — bursts in which one instrument trades heavily inside
a narrow price/volume band — embedded in diffuse background trading.

All four coordinates are emitted on comparable scales so that a single
range threshold θr is meaningful (as in the paper's normalized setup):

* ``type``: 0.0 (buy) or 1.0 (sell) — cross-type records are never
  neighbors at the θr values used, mirroring the semantic separation;
* ``price``: normalized price level in [0, 1];
* ``volume``: normalized (log-scaled) transaction size in [0, 1];
* ``time``: fraction of the trading day in [0, 1], advancing with the
  record index, so a count-based window spans a narrow time slice.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, List, Optional, Tuple

from repro.streams.objects import StreamObject

Point = Tuple[float, float, float, float]


class _Burst:
    __slots__ = ("type_value", "price", "volume", "remaining", "spread")

    def __init__(
        self,
        type_value: float,
        price: float,
        volume: float,
        remaining: int,
        spread: float,
    ):
        self.type_value = type_value
        self.price = price
        self.volume = volume
        self.remaining = remaining
        self.spread = spread


class STTStream:
    """Synthetic 4-D stock transaction stream with bursty clusters."""

    def __init__(
        self,
        total_records: int = 1_000_000,
        burst_fraction: float = 0.7,
        mean_burst_length: int = 2000,
        max_active_bursts: int = 5,
        burst_spread: float = 0.015,
        price_tick: float = 0.005,
        volume_lot: float = 0.01,
        seed: Optional[int] = 0,
    ):
        if not 0 <= burst_fraction <= 1:
            raise ValueError("burst_fraction must be in [0, 1]")
        if price_tick < 0 or volume_lot < 0:
            raise ValueError("tick/lot sizes must be non-negative")
        self.total_records = total_records
        self.burst_fraction = burst_fraction
        self.mean_burst_length = mean_burst_length
        self.max_active_bursts = max_active_bursts
        self.burst_spread = burst_spread
        # Real markets quote discrete price ticks and round volume lots;
        # quantization concentrates intensive-transaction areas onto few
        # distinct coordinates (0 disables).
        self.price_tick = price_tick
        self.volume_lot = volume_lot
        self._rng = random.Random(seed)
        self._bursts: List[_Burst] = []

    def _quantize(self, price: float, volume: float) -> tuple:
        if self.price_tick > 0:
            price = round(price / self.price_tick) * self.price_tick
        if self.volume_lot > 0:
            volume = round(volume / self.volume_lot) * self.volume_lot
        return price, volume

    def _spawn_burst(self) -> _Burst:
        rng = self._rng
        length = max(200, int(rng.expovariate(1.0 / self.mean_burst_length)))
        return _Burst(
            type_value=float(rng.random() < 0.5),
            price=rng.uniform(0.05, 0.95),
            volume=rng.uniform(0.1, 0.9),
            remaining=length,
            spread=self.burst_spread * rng.uniform(0.5, 1.5),
        )

    def points(self, n: Optional[int] = None) -> Iterator[Point]:
        """Yield transaction records as 4-D coordinate tuples."""
        rng = self._rng
        total = self.total_records if n is None else n
        for i in range(total):
            time_value = i / max(1, self.total_records)
            self._bursts = [b for b in self._bursts if b.remaining > 0]
            while (
                len(self._bursts) < self.max_active_bursts
                and rng.random() < 0.002
            ):
                self._bursts.append(self._spawn_burst())
            if self._bursts and rng.random() < self.burst_fraction:
                burst = rng.choice(self._bursts)
                burst.remaining -= 1
                price, volume = self._quantize(
                    min(1.0, max(0.0, rng.gauss(burst.price, burst.spread))),
                    min(1.0, max(0.0, rng.gauss(burst.volume, burst.spread))),
                )
                yield (burst.type_value, price, volume, time_value)
            else:
                # Background trade: log-uniform volume, uniform price.
                price, volume = self._quantize(
                    rng.uniform(0.0, 1.0),
                    math.exp(rng.uniform(math.log(1e-3), 0.0)),
                )
                yield (
                    float(rng.random() < 0.5),
                    price,
                    volume,
                    time_value,
                )

    def objects(self, n: Optional[int] = None, start_oid: int = 0) -> Iterator[StreamObject]:
        for i, coords in enumerate(self.points(n)):
            yield StreamObject(start_oid + i, coords)
