"""The Pattern Extractor: executes Continuous Clustering Queries.

Wraps C-SGS behind the query template of Figure 2: given θr, θc and a
window specification, it consumes a raw stream source and emits one
:class:`~repro.core.csgs.WindowOutput` per window — clusters in both the
full and the summarized (SGS) representation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.core.csgs import CSGS, WindowOutput
from repro.index.provider import NeighborProvider
from repro.streams.objects import StreamObject
from repro.streams.windows import WindowSpec, Windower


class PatternExtractor:
    """Continuous cluster extraction + summarization over one stream.

    ``index_backend`` selects the neighbor-search backend by name
    (``grid`` / ``kdtree``); alternatively a ready
    :class:`~repro.index.provider.NeighborProvider` instance can be
    injected via ``provider``.
    """

    def __init__(
        self,
        theta_range: float,
        theta_count: int,
        dimensions: int,
        window_spec: WindowSpec,
        index_backend: Optional[str] = None,
        provider: Optional[NeighborProvider] = None,
    ):
        self.theta_range = float(theta_range)
        self.theta_count = int(theta_count)
        self.dimensions = int(dimensions)
        self.window_spec = window_spec
        self.index_backend = index_backend
        self._windower = Windower(window_spec)
        self._csgs = CSGS(
            theta_range,
            theta_count,
            dimensions,
            provider=provider,
            backend=index_backend,
        )

    def run(
        self,
        source: Iterable[StreamObject],
        max_windows: Optional[int] = None,
    ) -> Iterator[WindowOutput]:
        """Process the source, yielding one output per window."""
        produced = 0
        for batch in self._windower.batches(source):
            yield self._csgs.process_batch(batch)
            produced += 1
            if max_windows is not None and produced >= max_windows:
                return
