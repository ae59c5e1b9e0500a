"""Non-locational feature grid index (Section 7.1).

The Pattern Base organizes archived clusters along four non-locational
features captured by SGS: volume (number of skeletal grid cells), status
count (number of core cells), average density, and average connectivity.
This index bins those feature vectors into a uniform 4-D grid so a
matching query can enumerate only the clusters inside a per-feature search
range, as derived from the distance threshold (Section 7.2's candidate
search).

Range bounds may be infinite: zero-weight features contribute
``[0, inf)`` search ranges (see
:func:`repro.matching.metric.feature_search_ranges`), and analysts can
leave constraint sides open. Unbounded sides clamp to the *occupied* key
extent per dimension — maintained incrementally, not rescanned per
query — so an open range never enumerates bins beyond the data, and a
degenerate range (``+inf`` low, ``-inf`` high, or low > high) returns
empty without probing a single bin. The ``stats`` dict counts bin
probes and scan fallbacks the same way the neighbor-search providers
count candidates, so query planners can report index effort.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

Coord = Tuple[int, ...]


class FeatureGridIndex:
    """Uniform grid index over fixed-dimension feature vectors.

    ``bin_widths`` fixes the granularity per feature. Entries are
    ``(features, value)``; range queries return the values whose features
    fall inside a closed hyper-rectangle.
    """

    def __init__(self, bin_widths: Sequence[float]):
        if not bin_widths:
            raise ValueError("need at least one feature dimension")
        if any(width <= 0 for width in bin_widths):
            raise ValueError("bin widths must be positive")
        self.bin_widths = tuple(float(width) for width in bin_widths)
        self.dimensions = len(self.bin_widths)
        self._cells: Dict[Coord, List[Tuple[Tuple[float, ...], Any]]] = {}
        self._size = 0
        # Occupied-key extent per dimension, maintained incrementally:
        # inserts extend it in O(d); removals that touch a boundary mark
        # it dirty for a lazy recompute. Keeps unbounded-range clamping
        # off the per-query O(cells * dims) rescan it used to cost.
        self._min_keys: Optional[List[int]] = None
        self._max_keys: Optional[List[int]] = None
        self._extent_dirty = False
        #: Index-effort telemetry (for query planners / benches): range
        #: queries answered, bins probed by box enumeration, entries
        #: screened, and occupied-cell scan fallbacks taken.
        self.stats = {
            "range_queries": 0,
            "bin_probes": 0,
            "screened": 0,
            "scan_fallbacks": 0,
        }

    def _coord(self, features: Sequence[float]) -> Coord:
        if len(features) != self.dimensions:
            raise ValueError(
                f"feature vector has {len(features)} dims, expected "
                f"{self.dimensions}"
            )
        return tuple(
            int(math.floor(value / width))
            for value, width in zip(features, self.bin_widths)
        )

    def insert(self, features: Sequence[float], value: Any) -> None:
        key = self._coord(features)
        bucket = self._cells.setdefault(key, [])
        bucket.append((tuple(float(f) for f in features), value))
        self._size += 1
        if self._min_keys is None:
            self._min_keys = list(key)
            self._max_keys = list(key)
        else:
            for d, k in enumerate(key):
                if k < self._min_keys[d]:
                    self._min_keys[d] = k
                if k > self._max_keys[d]:
                    self._max_keys[d] = k

    def remove(self, features: Sequence[float], value: Any) -> bool:
        """Remove one entry with identical features and value identity."""
        key = self._coord(features)
        bucket = self._cells.get(key)
        if not bucket:
            return False
        for i, (stored, stored_value) in enumerate(bucket):
            if stored_value is value and all(
                abs(a - b) < 1e-12 for a, b in zip(stored, features)
            ):
                del bucket[i]
                if not bucket:
                    del self._cells[key]
                    if self._min_keys is not None and any(
                        k == self._min_keys[d] or k == self._max_keys[d]
                        for d, k in enumerate(key)
                    ):
                        self._extent_dirty = True
                self._size -= 1
                return True
        return False

    def key_extents(self) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """Occupied bin-key extent per dimension, or ``None`` when empty."""
        if not self._cells:
            return None
        if self._extent_dirty or self._min_keys is None:
            self._min_keys = [
                min(key[d] for key in self._cells)
                for d in range(self.dimensions)
            ]
            self._max_keys = [
                max(key[d] for key in self._cells)
                for d in range(self.dimensions)
            ]
            self._extent_dirty = False
        return tuple(self._min_keys), tuple(self._max_keys)

    def covers_occupied_extent(
        self, lows: Sequence[float], highs: Sequence[float]
    ) -> bool:
        """True when ``[lows, highs]`` contains every stored feature
        vector — i.e. the range has no filtering power and a planner
        should prefer a plain scan over a bin enumeration."""
        extents = self.key_extents()
        if extents is None:
            return True
        min_keys, max_keys = extents
        for d, (low, high) in enumerate(zip(lows, highs)):
            width = self.bin_widths[d]
            # Every stored value in dim d lies in
            # [min_key * width, (max_key + 1) * width).
            if low > min_keys[d] * width:
                return False
            if high < (max_keys[d] + 1) * width:
                return False
        return True

    def range_query(
        self, lows: Sequence[float], highs: Sequence[float]
    ) -> List[Any]:
        """Return values whose features lie in [lows, highs] per dimension."""
        if len(lows) != self.dimensions or len(highs) != self.dimensions:
            raise ValueError("range bounds must match feature dimensions")
        for low, high in zip(lows, highs):
            if math.isnan(low) or math.isnan(high):
                raise ValueError("range bounds must not be NaN")
        self.stats["range_queries"] += 1
        if not self._cells:
            return []
        # Degenerate ranges — +inf lows, -inf highs, or inverted
        # bounds — match nothing: answer without probing a single bin
        # (+inf used to clamp like an *unbounded* side and enumerate
        # the whole occupied box just to screen everything out).
        for low, high in zip(lows, highs):
            if low > high or math.isinf(low) and low > 0:
                return []
            if math.isinf(high) and high < 0:
                return []
        min_keys, max_keys = self.key_extents()
        # Unbounded sides (e.g. zero-weight features) clamp to the
        # occupied extent instead of enumerating an infinite box.
        low_cell = tuple(
            min_keys[d]
            if math.isinf(low)
            else max(min_keys[d], int(math.floor(low / width)))
            for d, (low, width) in enumerate(zip(lows, self.bin_widths))
        )
        high_cell = tuple(
            max_keys[d]
            if math.isinf(high)
            else min(max_keys[d], int(math.floor(high / width)))
            for d, (high, width) in enumerate(zip(highs, self.bin_widths))
        )
        result: List[Any] = []
        stats = self.stats

        def visit(prefix: Coord) -> None:
            depth = len(prefix)
            if depth == self.dimensions:
                stats["bin_probes"] += 1
                bucket = self._cells.get(prefix)
                if not bucket:
                    return
                stats["screened"] += len(bucket)
                for features, value in bucket:
                    inside = True
                    for f, low, high in zip(features, lows, highs):
                        if f < low or f > high:
                            inside = False
                            break
                    if inside:
                        result.append(value)
                return
            for c in range(low_cell[depth], high_cell[depth] + 1):
                visit(prefix + (c,))

        # When the query box is huge relative to occupied cells, scanning
        # occupied cells directly is cheaper than enumerating the box.
        box_cells = 1
        for low, high in zip(low_cell, high_cell):
            box_cells *= high - low + 1
            if box_cells > max(1, len(self._cells)):
                break
        if box_cells > len(self._cells):
            stats["scan_fallbacks"] += 1
            stats["bin_probes"] += len(self._cells)
            for key, bucket in self._cells.items():
                if all(l <= k <= h for k, l, h in zip(key, low_cell, high_cell)):
                    stats["screened"] += len(bucket)
                    for features, value in bucket:
                        if all(
                            low <= f <= high
                            for f, low, high in zip(features, lows, highs)
                        ):
                            result.append(value)
            return result
        visit(())
        return result

    def __len__(self) -> int:
        return self._size
