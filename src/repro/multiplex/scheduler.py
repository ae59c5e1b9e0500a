"""The batched slide scheduler: k queries, one range-query pass.

This is the data plane of query multiplexing. All registered queries'
window slides are aligned on one slide bucketing (the first registered
query fixes it; later registrations must agree on slide semantics —
window *sizes* may differ). Per stream batch the scheduler performs
**one** ``range_query_many`` pass over the shared multi-resolution
substrate and fans the per-object neighbor lists out to member C-SGS
pipelines — the window-function playbook: partition the stream once
(slide buckets), order it once (arrival), pre-aggregate the frame
(top-rung neighbor candidates with exact squared distances), then let
every query evaluate its own predicate over the shared frame instead of
re-running the search.

Queries are grouped into **cohorts** by ``(rung, lifespan,
activation window)``. A cohort is exactly the degenerate same-θr case
:class:`~repro.clustering.shared.SharedCSGS` implements, so each cohort
*is* a ``SharedCSGS`` — coordinator-fed for snapped rungs (neighbor
lists injected from the shared pass), owner-mode for the dedicated
fallback (a θr the ladder can't represent). Each cohort owns a genuine
:class:`~repro.index.grid_index.CellMap` at its exact θr and per-cohort
window-stamped object clones, which is what makes the multiplexed
output **byte-identical** to independent per-query runs: cell
addressing, window stamps, and neighbor sets all match what a dedicated
pipeline computes (the equivalence suite pins it, across backends).

Per-query visibility over the shared pass is three exact filters on the
candidate ``(object, squared distance)`` pairs:

* radius — ``sqdist <= θr²`` (θr *is* the rung radius, exactly);
* admission — the neighbor arrived at or after the cohort's activation
  window (a query registered mid-stream never sees older objects, same
  as a fresh independent run);
* liveness — the neighbor's arrival bucket plus the cohort's lifespan
  still covers the current window (per-query window sizes differ, so an
  object may be expired for one query while alive for another).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import ContinuousClusteringQuery
from repro.clustering.shared import SharedCSGS
from repro.core.csgs import WindowOutput
from repro.index.grid_index import CellMap
from repro.multiplex.provider import MultiResolutionProvider, RungView
from repro.multiplex.registry import (
    ACTIVE,
    PENDING,
    QueryRegistry,
    RegisteredQuery,
    STOPPED,
    Sink,
)
from repro.streams.objects import StreamObject
from repro.streams.windows import (
    TimeBasedWindowSpec,
    WindowBatch,
    WindowSpec,
)

__all__ = ["SlideScheduler"]


class _Cohort:
    """One (θr, lifespan, activation) group of co-executing queries."""

    __slots__ = (
        "seq",
        "key",
        "theta_range",
        "lifespan",
        "start_window",
        "level",
        "shared",
        "queries",
    )

    def __init__(
        self,
        seq: int,
        key: Tuple,
        theta_range: float,
        lifespan: int,
        start_window: int,
        level: Optional[int],
        shared: SharedCSGS,
    ):
        self.seq = seq
        self.key = key
        self.theta_range = theta_range
        self.lifespan = lifespan
        self.start_window = start_window
        #: Substrate rung (``None`` = dedicated-provider fallback).
        self.level = level
        self.shared = shared
        #: Attached queries per θc (two identical queries share one
        #: member pipeline and receive the same output object).
        self.queries: Dict[int, List[RegisteredQuery]] = {}


class SlideScheduler:
    """Align slides across registered queries; one shared pass per batch."""

    def __init__(
        self,
        dimensions: int,
        registry: Optional[QueryRegistry] = None,
        factor: float = 2.0,
    ):
        if dimensions < 1:
            raise ValueError("dimensions must be positive")
        if factor < 2:
            raise ValueError("ladder factor must be at least 2")
        self.dimensions = int(dimensions)
        self.factor = float(factor)
        if registry is None:
            registry = QueryRegistry(validator=self._validate_query)
        self.registry = registry
        self.provider: Optional[MultiResolutionProvider] = None
        self._base_spec: Optional[WindowSpec] = None
        self._cohorts: Dict[Tuple, _Cohort] = {}
        self._attached: Dict[int, Tuple] = {}  # query id -> cohort key
        self._cohort_seq = 0
        self._expiry: Dict[int, List[StreamObject]] = {}
        self._purge_window = 0
        self._next_index: Optional[int] = None
        self.windows_processed = 0
        # Incremental windowing state for feed()/flush().
        self._current: Optional[WindowBatch] = None
        self._arrival_index = 0

    # ------------------------------------------------------------------
    # Registration (delegates to the registry; validation lives here)
    # ------------------------------------------------------------------

    def register(
        self,
        query: ContinuousClusteringQuery,
        sink: Optional[Sink] = None,
    ) -> RegisteredQuery:
        return self.registry.register(query, sink=sink)

    def unregister(self, query_id: int) -> RegisteredQuery:
        return self.registry.unregister(query_id)

    def _validate_query(self, query: ContinuousClusteringQuery) -> None:
        if query.dimensions != self.dimensions:
            raise ValueError(
                f"query has {query.dimensions} dimensions; this "
                f"multiplexed run is {self.dimensions}-dimensional"
            )
        spec = query.window
        base = self._base_spec
        if base is None:
            # The first query fixes the slide bucketing for the run.
            self._base_spec = spec
            return
        if type(spec) is not type(base):
            raise ValueError(
                "window kinds cannot be mixed in one multiplexed run: "
                f"the run slides {type(base).__name__}, the query asks "
                f"{type(spec).__name__}"
            )
        if spec.slide != base.slide:
            raise ValueError(
                f"query slide {spec.slide} does not align with the "
                f"run's slide {base.slide}; all multiplexed queries "
                "must share one slide (window sizes may differ)"
            )
        if isinstance(spec, TimeBasedWindowSpec) and (
            spec.origin != base.origin
        ):
            raise ValueError(
                f"query window origin {spec.origin} does not align "
                f"with the run's origin {base.origin}"
            )

    # ------------------------------------------------------------------
    # Cohort lifecycle (batch-boundary sync with the registry)
    # ------------------------------------------------------------------

    def _sync(self, index: int) -> None:
        pending: List[RegisteredQuery] = []
        for handle in self.registry.snapshot():
            if handle.state == STOPPED and handle.id in self._attached:
                self._detach(handle, index)
            elif handle.state == PENDING:
                pending.append(handle)
        if not pending:
            return
        # Group same-boundary activations so queries sharing (rung,
        # lifespan) land in one cohort from the start.
        groups: Dict[Tuple, List[RegisteredQuery]] = {}
        levels: Dict[int, Optional[int]] = {}
        for handle in pending:
            level = self._snap(handle.query)
            levels[handle.id] = level
            key = self._cohort_key(handle.query, level, index)
            groups.setdefault(key, []).append(handle)
        for key, handles in groups.items():
            cohort = self._cohorts.get(key)
            if cohort is None:
                cohort = self._make_cohort(key, handles, index)
                self._cohorts[key] = cohort
            for handle in handles:
                count = handle.query.theta_count
                cohort.queries.setdefault(count, []).append(handle)
                handle.state = ACTIVE
                handle.start_window = index
                handle.rung_level = cohort.level
                handle.dedicated = cohort.level is None
                if cohort.level is not None:
                    self.provider.acquire(cohort.level)
                self._attached[handle.id] = key

    def _snap(self, query: ContinuousClusteringQuery) -> Optional[int]:
        if self.provider is None:
            # The first activated query anchors the ladder at its θr.
            self.provider = MultiResolutionProvider(
                query.theta_range, self.dimensions, factor=self.factor
            )
        return self.provider.snap_level(query.theta_range)

    def _cohort_key(
        self,
        query: ContinuousClusteringQuery,
        level: Optional[int],
        index: int,
    ) -> Tuple:
        lifespan = query.window.windows_per_object
        if level is not None:
            return ("rung", level, lifespan, index)
        # Dedicated pipelines honor the query's declared backend (the
        # shared substrate has its own), so it is part of what makes
        # two fallback queries co-executable.
        return (
            "dedicated",
            query.theta_range,
            lifespan,
            index,
            query.index_backend,
        )

    def _make_cohort(
        self, key: Tuple, handles: List[RegisteredQuery], index: int
    ) -> _Cohort:
        query = handles[0].query
        lifespan = query.window.windows_per_object
        counts: List[int] = []
        for handle in handles:
            if handle.query.theta_count not in counts:
                counts.append(handle.query.theta_count)
        level = key[1] if key[0] == "rung" else None
        if level is not None:
            theta = self.provider.theta_at(level)
            shared = SharedCSGS(
                theta,
                counts,
                self.dimensions,
                provider=RungView(self.provider, level),
                cells=CellMap(theta, self.dimensions),
                manage_provider=False,
            )
        else:
            shared = SharedCSGS(
                query.theta_range,
                counts,
                self.dimensions,
                backend=query.index_backend,
            )
        self._cohort_seq += 1
        return _Cohort(
            self._cohort_seq,
            key,
            query.theta_range if level is None else self.provider.theta_at(level),
            lifespan,
            index,
            level,
            shared,
        )

    def _detach(self, handle: RegisteredQuery, index: int) -> None:
        key = self._attached.pop(handle.id)
        cohort = self._cohorts[key]
        count = handle.query.theta_count
        peers = cohort.queries[count]
        peers.remove(handle)
        handle.stop_window = index
        if not peers:
            del cohort.queries[count]
            cohort.shared.remove_member(count)
        if handle.rung_level is not None:
            self.provider.release(handle.rung_level)
        if not cohort.queries:
            del self._cohorts[key]

    def _ordered_cohorts(self) -> List[_Cohort]:
        return sorted(self._cohorts.values(), key=lambda c: c.seq)

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------

    def process_batch(
        self, batch: WindowBatch
    ) -> Dict[int, WindowOutput]:
        """Execute one slide for every registered query.

        Returns ``{query_id: WindowOutput}`` for the queries active in
        this window (sinks are called as well).
        """
        index = batch.index
        if self._next_index is not None and index < self._next_index:
            raise ValueError(
                f"windows must advance monotonically ({index} < "
                f"{self._next_index})"
            )
        self._sync(index)
        objects = list(batch.new_objects)
        cohorts = self._ordered_cohorts()
        snapped = [c for c in cohorts if c.level is not None]
        if self.provider is not None:
            self._purge_provider(index)
        results: Dict[int, WindowOutput] = {}
        # Clone stamps depend only on (batch index, lifespan), so all
        # cohorts sharing a lifespan share one clone list per batch (no
        # cohort ever mutates a clone after creation).
        clones_by_life: Dict[int, List[StreamObject]] = {}
        if snapped:
            max_lifespan = max(c.lifespan for c in snapped)
            for obj in objects:
                # Master stamps: arrival bucket, and retention until the
                # longest-lived active cohort is done with the object.
                obj.first_window = index
                obj.last_window = index + max_lifespan - 1
            # Masters already carry exactly the stamps a max-lifespan
            # clone would, so those cohorts ingest them directly.
            clones_by_life[max_lifespan] = objects
            candidates = (
                self.provider.batch_neighborhoods(objects)
                if objects
                else []
            )
            for obj in objects:
                self._expiry.setdefault(obj.last_window, []).append(obj)
            for cohort in snapped:
                outputs = self._run_snapped(
                    cohort,
                    index,
                    objects,
                    self._clones_for(clones_by_life, objects, index, cohort),
                    candidates,
                )
                self._fan_out(cohort, outputs, results)
        for cohort in cohorts:
            if cohort.level is not None:
                continue
            clones = self._clones_for(clones_by_life, objects, index, cohort)
            outputs = cohort.shared.process_batch(WindowBatch(index, clones))
            self._fan_out(cohort, outputs, results)
        self.windows_processed += 1
        self._next_index = index + 1
        return results

    def _run_snapped(
        self,
        cohort: _Cohort,
        index: int,
        objects: List[StreamObject],
        clones: List[StreamObject],
        candidates: List[Tuple[List[StreamObject], List[float]]],
    ) -> Dict[int, WindowOutput]:
        shared = cohort.shared
        shared.begin_window(index)
        sq_range = cohort.theta_range * cohort.theta_range
        start = cohort.start_window
        horizon = index - cohort.lifespan  # arrival bucket must exceed it
        pending = {obj.oid for obj in objects}
        for obj, clone, (neighbors, sq_dists) in zip(
            objects, clones, candidates
        ):
            pending.discard(obj.oid)
            known: List[StreamObject] = []
            # Distance-sorted candidates: this rung's radius cut is the
            # prefix up to θ² — the shared pass is scanned once per
            # cohort at the *cohort's* density, not the top rung's.
            for neighbor in neighbors[: bisect_right(sq_dists, sq_range)]:
                if neighbor.oid in pending:
                    # The later half of an intra-batch pair is credited
                    # when the later object is processed.
                    continue
                bucket = neighbor.first_window
                if bucket < start or bucket <= horizon:
                    continue
                known.append(neighbor)
            shared.ingest(clone, known)
        return shared.emit(index)

    @staticmethod
    def _clones_for(
        cache: Dict[int, List[StreamObject]],
        objects: List[StreamObject],
        index: int,
        cohort: _Cohort,
    ) -> List[StreamObject]:
        """This batch's object copies carrying the cohort's window stamps
        (the career maths reads neighbor lifespans off those two
        integers, so they must match what an independent run would
        stamp); one list per distinct lifespan, shared across cohorts."""
        clones = cache.get(cohort.lifespan)
        if clones is None:
            last = index + cohort.lifespan - 1
            clones = []
            for obj in objects:
                clone = StreamObject(obj.oid, obj.coords, obj.timestamp)
                clone.first_window = index
                clone.last_window = last
                clones.append(clone)
            cache[cohort.lifespan] = clones
        return clones

    def _fan_out(
        self,
        cohort: _Cohort,
        outputs: Dict[int, WindowOutput],
        results: Dict[int, WindowOutput],
    ) -> None:
        for count, output in outputs.items():
            for handle in cohort.queries.get(count, ()):
                handle.deliver(output)
                results[handle.id] = output

    def _purge_provider(self, index: int) -> None:
        for window in range(self._purge_window, index):
            for obj in self._expiry.pop(window, ()):
                self.provider.remove(obj)
        self._purge_window = index

    # ------------------------------------------------------------------
    # Stream driving (incremental windowing over the aligned slide)
    # ------------------------------------------------------------------

    def _slide_of(
        self, obj: StreamObject, arrival: int, open_slide: Optional[int]
    ) -> int:
        """The slide bucket of the ``arrival``-th object while
        ``open_slide`` is the pending slide (``None`` when none is); a
        ValueError when that bucket belongs to an already closed slide."""
        bucket = self._base_spec.slide_bucket(obj, arrival)
        floor = (self._next_index or 0) if open_slide is None else open_slide
        if bucket < floor:
            raise ValueError(
                "stream is not ordered: object belongs to an already "
                f"closed slide ({bucket} < {floor})"
            )
        return bucket

    def check_order(self, objects: Sequence[StreamObject]) -> None:
        """Raise what :meth:`feed` would raise on ``objects`` for their
        slide order, without admitting any of them: a batch refused here
        leaves the run exactly as it was."""
        if self._base_spec is None:
            raise ValueError(
                "register at least one query before feeding the stream"
            )
        open_slide = None if self._current is None else self._current.index
        for arrival, obj in enumerate(objects, self._arrival_index):
            # Admitted, the object's slide is the pending one: no bucket
            # below the floor gets this far.
            open_slide = self._slide_of(obj, arrival, open_slide)

    def feed(
        self, source: Iterable[StreamObject]
    ) -> List[Tuple[int, Dict[int, WindowOutput]]]:
        """Consume stream objects, processing every slide they complete.

        Returns ``[(window_index, {query_id: output}), ...]`` for the
        windows closed by this call; a final partial slide stays pending
        until more objects arrive (or :meth:`flush` forces it).
        """
        if self._base_spec is None:
            raise ValueError(
                "register at least one query before feeding the stream"
            )
        results: List[Tuple[int, Dict[int, WindowOutput]]] = []
        for obj in source:
            bucket = self._slide_of(
                obj,
                self._arrival_index,
                None if self._current is None else self._current.index,
            )
            self._arrival_index += 1
            if self._current is None:
                self._current = WindowBatch(index=bucket)
            while bucket > self._current.index:
                closing = self._current
                self._current = WindowBatch(index=closing.index + 1)
                results.append((closing.index, self.process_batch(closing)))
            self._current.new_objects.append(obj)
        return results

    def flush(self) -> List[Tuple[int, Dict[int, WindowOutput]]]:
        """Force the pending partial slide through, if any."""
        if self._current is None:
            return []
        closing = self._current
        self._current = None
        return [(closing.index, self.process_batch(closing))]

    def run(
        self, source: Iterable[StreamObject]
    ) -> List[Tuple[int, Dict[int, WindowOutput]]]:
        """Drive a finite stream to completion: feed, then flush."""
        results = self.feed(source)
        results.extend(self.flush())
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """A JSON-able status block (CLI ``repro multiplex`` and the
        serving layer's ``/stats`` render it)."""
        rungs: List[Dict[str, object]] = []
        provider_stats: Optional[Dict[str, object]] = None
        if self.provider is not None:
            refs = self.provider.active_rungs()
            rungs = [
                {
                    "level": level,
                    "theta_range": self.provider.theta_at(level),
                    "queries": refs[level],
                    "top": level == self.provider.top_level,
                }
                for level in sorted(refs)
            ]
            provider_stats = dict(self.provider.stats)
            provider_stats["objects"] = len(self.provider)
            provider_stats["anchor_theta"] = self.provider.anchor_theta
        cohorts: List[Dict[str, object]] = []
        dedicated_range_queries = 0
        for cohort in self._ordered_cohorts():
            occupied = list(cohort.shared.cells.occupied_cells())
            entry: Dict[str, object] = {
                "mode": "shared" if cohort.level is not None else "dedicated",
                "rung": cohort.level,
                "theta_range": cohort.theta_range,
                "lifespan": cohort.lifespan,
                "start_window": cohort.start_window,
                "theta_counts": sorted(cohort.queries),
                "queries": sum(len(v) for v in cohort.queries.values()),
                "cells": len(occupied),
            }
            if cohort.level is not None and self.provider is not None:
                entry["top_cells"] = self.provider.nesting_of(
                    occupied, cohort.level
                )
            else:
                dedicated_range_queries += cohort.shared.range_queries_run
            cohorts.append(entry)
        return {
            "dimensions": self.dimensions,
            "factor": self.factor,
            "windows_processed": self.windows_processed,
            "queries": self.registry.describe(),
            "rungs": rungs,
            "cohorts": cohorts,
            "provider": provider_stats,
            "dedicated_range_queries": dedicated_range_queries,
        }
