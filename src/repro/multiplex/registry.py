"""Runtime registry of concurrent Continuous Clustering Queries.

The registry is the control plane of the multiplexing subsystem: it
hands out stable integer query ids, tracks each query's lifecycle, and
holds the per-query result sink and counters. The data plane — cohort
formation, the shared substrate, window execution — lives in
:mod:`repro.multiplex.scheduler`, which reads the registry at every
batch boundary:

* ``pending`` — registered, not yet picked up by the scheduler; the
  query starts with the next processed batch;
* ``active``  — executing; its sink receives one
  :class:`~repro.core.csgs.WindowOutput` per window;
* ``stopped`` — unregistered (or registered then cancelled before ever
  running); it receives nothing further, and the scheduler detaches its
  pipeline at the next batch boundary.

Registration accepts any
:class:`~repro.config.ContinuousClusteringQuery`; a validator installed
by the scheduler rejects queries that cannot join the multiplexed run
(dimensionality mismatch, misaligned window slide) at ``register``
time, before an id is assigned.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

from repro.config import ContinuousClusteringQuery
from repro.core.csgs import WindowOutput

__all__ = ["PENDING", "ACTIVE", "STOPPED", "RegisteredQuery", "QueryRegistry"]

PENDING = "pending"
ACTIVE = "active"
STOPPED = "stopped"

#: A per-query result sink: called once per emitted window.
Sink = Callable[["RegisteredQuery", WindowOutput], None]


class RegisteredQuery:
    """One registered query: stable id, lifecycle, sink, counters."""

    __slots__ = (
        "id",
        "query",
        "sink",
        "state",
        "start_window",
        "stop_window",
        "rung_level",
        "dedicated",
        "counters",
    )

    def __init__(
        self,
        query_id: int,
        query: ContinuousClusteringQuery,
        sink: Optional[Sink],
    ):
        self.id = query_id
        self.query = query
        self.sink = sink
        self.state = PENDING
        #: First window index the query executed in (set on activation).
        self.start_window: Optional[int] = None
        #: First window index the query no longer executed in.
        self.stop_window: Optional[int] = None
        #: The substrate rung serving this query's θr (``None`` until
        #: activation, and for dedicated-fallback queries).
        self.rung_level: Optional[int] = None
        #: True when the query runs on a dedicated provider (θr not
        #: snappable onto the ladder, or sharing disabled).
        self.dedicated = False
        self.counters: Dict[str, int] = {"windows": 0, "clusters": 0}

    def deliver(self, output: WindowOutput) -> None:
        """Count one emitted window and hand it to the sink, if any."""
        self.counters["windows"] += 1
        self.counters["clusters"] += len(output.clusters)
        if self.sink is not None:
            self.sink(self, output)

    def describe(self) -> Dict[str, object]:
        """A JSON-able status block (the ``/stats`` per-query entry)."""
        return {
            "id": self.id,
            "state": self.state,
            "theta_range": self.query.theta_range,
            "theta_count": self.query.theta_count,
            "dimensions": self.query.dimensions,
            "win": self.query.window.win,
            "slide": self.query.window.slide,
            "rung": self.rung_level,
            "dedicated": self.dedicated,
            "start_window": self.start_window,
            "stop_window": self.stop_window,
            "windows": self.counters["windows"],
            "clusters": self.counters["clusters"],
        }

    def __repr__(self) -> str:
        return (
            f"RegisteredQuery(id={self.id}, state={self.state!r}, "
            f"theta_range={self.query.theta_range}, "
            f"theta_count={self.query.theta_count})"
        )


class QueryRegistry:
    """Thread-safe registration/unregistration of clustering queries."""

    def __init__(
        self,
        validator: Optional[
            Callable[[ContinuousClusteringQuery], None]
        ] = None,
    ):
        self._validator = validator
        self._lock = threading.Lock()
        self._queries: Dict[int, RegisteredQuery] = {}
        self._next_id = 1

    def register(
        self,
        query: ContinuousClusteringQuery,
        sink: Optional[Sink] = None,
    ) -> RegisteredQuery:
        """Admit a query; returns its handle (``.id`` is stable).

        The query is ``pending`` until the scheduler's next batch
        boundary. A validator (installed by the scheduler) raises
        ``ValueError`` here — before an id is assigned — when the query
        cannot join the run.
        """
        if not isinstance(query, ContinuousClusteringQuery):
            raise ValueError(
                "register expects a ContinuousClusteringQuery, got "
                f"{type(query).__name__}"
            )
        if self._validator is not None:
            self._validator(query)
        with self._lock:
            handle = RegisteredQuery(self._next_id, query, sink)
            self._queries[handle.id] = handle
            self._next_id += 1
            return handle

    def unregister(self, query_id: int) -> RegisteredQuery:
        """Stop a query. It receives no further outputs; the scheduler
        detaches its pipeline at the next batch boundary."""
        with self._lock:
            handle = self._queries.get(int(query_id))
            if handle is None:
                raise KeyError(f"no registered query with id {query_id}")
            if handle.state == STOPPED:
                raise ValueError(f"query {handle.id} is already stopped")
            handle.state = STOPPED
            return handle

    def get(self, query_id: int) -> RegisteredQuery:
        with self._lock:
            handle = self._queries.get(int(query_id))
            if handle is None:
                raise KeyError(f"no registered query with id {query_id}")
            return handle

    def snapshot(self) -> List[RegisteredQuery]:
        """All handles ever registered, in id order."""
        with self._lock:
            return [self._queries[qid] for qid in sorted(self._queries)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._queries)

    def describe(self) -> List[Dict[str, object]]:
        return [handle.describe() for handle in self.snapshot()]
