"""CQL-style periodic sliding windows (count- and time-based).

Semantics follow Section 3.1 of the paper (and CQL): a query has a fixed
window size ``win`` and slide size ``slide``; clusters for window ``W_n``
are computed only over the tuples that fall into ``W_n``. We require
``win`` to be a multiple of ``slide`` (the configurations evaluated in the
paper all satisfy this), which makes window membership a pure function of
the tuple's slide bucket:

* a tuple arriving in slide bucket ``s`` participates in windows
  ``s .. s + win/slide - 1`` — Observation 5.2 expressed per-object.

The :class:`Windower` stamps ``first_window``/``last_window`` onto each
object and emits one :class:`WindowBatch` per slide, carrying the new
objects. Consumers (C-SGS, Extra-N, per-window DBSCAN) purge objects whose
``last_window`` has passed; no other expiration bookkeeping exists, which
is exactly the property the paper's lifespan analysis exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List

from repro.streams.objects import StreamObject


class WindowSpec:
    """Base class for window specifications.

    ``windows_per_object`` is ``win / slide``: the number of windows every
    object participates in.
    """

    def __init__(self, win: float, slide: float):
        if not (math.isfinite(win) and math.isfinite(slide)):
            raise ValueError("win and slide must be finite")
        if win <= 0 or slide <= 0:
            raise ValueError("win and slide must be positive")
        ratio = win / slide
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(
                f"win ({win}) must be a multiple of slide ({slide})"
            )
        self.win = win
        self.slide = slide
        self.windows_per_object = int(round(ratio))

    def slide_bucket(self, obj: StreamObject, arrival_index: int) -> int:
        """Return the slide bucket an object belongs to."""
        raise NotImplementedError


class CountBasedWindowSpec(WindowSpec):
    """Count-based window: ``win`` and ``slide`` are tuple counts."""

    def __init__(self, win: int, slide: int):
        super().__init__(win, slide)
        if int(win) != win or int(slide) != slide:
            raise ValueError("count-based win/slide must be integers")
        self.win, self.slide = int(win), int(slide)

    def slide_bucket(self, obj: StreamObject, arrival_index: int) -> int:
        return arrival_index // int(self.slide)


class TimeBasedWindowSpec(WindowSpec):
    """Time-based window: ``win`` and ``slide`` are durations.

    ``origin`` is the stream epoch; tuple timestamps are bucketed as
    ``floor((t - origin) / slide)``.
    """

    def __init__(self, win: float, slide: float, origin: float = 0.0):
        super().__init__(float(win), float(slide))
        self.origin = float(origin)

    def slide_bucket(self, obj: StreamObject, arrival_index: int) -> int:
        return int(math.floor((obj.timestamp - self.origin) / self.slide))


@dataclass
class WindowBatch:
    """All new objects belonging to one slide, closing window ``index``."""

    index: int
    new_objects: List[StreamObject] = field(default_factory=list)


class Windower:
    """Stamps window membership onto stream objects and emits batches.

    One :class:`WindowBatch` is produced per slide (including empty slides
    for time-based windows), in window-index order starting at the bucket
    of the first tuple.
    """

    def __init__(self, spec: WindowSpec):
        self.spec = spec

    def batches(self, source: Iterable[StreamObject]) -> Iterator[WindowBatch]:
        """Yield one batch per completed slide; the final partial slide is
        flushed when the source is exhausted."""
        spec = self.spec
        lifespan = spec.windows_per_object
        current: WindowBatch | None = None
        arrival_index = 0
        for obj in source:
            bucket = spec.slide_bucket(obj, arrival_index)
            arrival_index += 1
            if current is None:
                current = WindowBatch(index=bucket)
            if bucket < current.index:
                raise ValueError(
                    "stream is not ordered: object belongs to an already "
                    f"closed slide ({bucket} < {current.index})"
                )
            while bucket > current.index:
                yield current
                current = WindowBatch(index=current.index + 1)
            obj.first_window = bucket
            obj.last_window = bucket + lifespan - 1
            current.new_objects.append(obj)
        if current is not None:
            yield current
