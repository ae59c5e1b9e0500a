"""In-memory spans recorded around calls into the layers.

The benchmark traces *from outside*: a span is opened in the harness
right before a call into a public function of a layer and closed right
after it, so the program under test carries no instrumentation. A span
is ``(name, start, end, parent)`` plus the run id shared by the whole
tracer; spans nest by a stack, so a layer's **self time** is its span's
duration minus the durations of the spans opened inside it. Counts are
recorded at the same boundaries. Everything stays in memory and is
written out once, by :meth:`Tracer.dump`, after the run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        #: ``[name, start, end, parent index or None]`` per span.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time summed per span name."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for (name, start, end, _), inside in zip(self.spans, child_time):
            totals[name] += (end - start) - inside
        return dict(totals)

    def layer_ms(self) -> Dict[str, float]:
        """``{span name + "_ms": self time in ms}``: spans are named after
        the layer metric they feed, so this is most of a traced run's
        metrics as they stand. Names never opened read 0."""
        totals: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_times().items():
            totals[name + "_ms"] = seconds * 1e3
        return totals

    def names(self) -> set:
        return {span[0] for span in self.spans}

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "run_id": self.run_id,
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p}
                        for n, s, e, p in self.spans
                    ],
                    "counts": dict(self.counts),
                    **(extra or {}),
                },
                handle,
            )
