"""Shared execution of multiple clustering queries over one stream.

The paper's lineage includes a shared execution strategy for multiple
density-based pattern mining requests (Yang et al., PVLDB 2009, cited as
[17]); this module provides the analogous capability for C-SGS: several
Continuous Clustering Queries that agree on θr and the window spec but
differ in θc are answered with **one neighbor-search provider and one
range query per new object**, instead of one per query. Since the
range-query search dominates insertion cost, k co-executing queries cost
far less than k independent pipelines (ablation E9 quantifies it).

The shared provider is any :class:`~repro.index.provider.NeighborProvider`
backend (grid by default, selectable by name), and the per-slide lookups
run through its batched ``range_query_many`` fast path: one pass per
window batch, with each object's neighbor list filtered to
already-arrived objects so member pipelines observe exactly the
object-at-a-time semantics.

:class:`SharedCSGS` runs in one of two modes:

* **owner** (the default): it owns the provider, runs the batched
  range-query pass itself, and is driven by :meth:`process_batch`;
* **coordinator-fed** (``manage_provider=False``): the neighbor lists
  come from outside — the query-multiplexing scheduler
  (:mod:`repro.multiplex.scheduler`) computes them once per batch from
  a substrate shared across *different* θr values, and drives the
  window lifecycle through :meth:`begin_window` / :meth:`ingest` /
  :meth:`emit`. Same-θr sharing is thus the degenerate case of the
  general multiplexer: one cohort, no radius filtering.

Correctness is unchanged: each member query maintains its own careers,
cell lifespans, and output (tested equal to an independent C-SGS run).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.csgs import CSGS, WindowOutput
from repro.index.grid_index import CellMap
from repro.index.provider import (
    NeighborProvider,
    batched_neighborhoods,
    cell_substrate,
    resolve_provider,
)
from repro.streams.objects import StreamObject
from repro.streams.windows import WindowBatch


class SharedCSGS:
    """Co-execute several C-SGS queries differing only in θc."""

    def __init__(
        self,
        theta_range: float,
        theta_counts: Sequence[int],
        dimensions: int,
        provider: Optional[NeighborProvider] = None,
        backend: Optional[str] = None,
        cells: Optional[CellMap] = None,
        manage_provider: bool = True,
    ):
        # Materialize before validating so generators/iterators are
        # checked on their values, not consumed twice.
        counts = tuple(int(count) for count in theta_counts)
        if not counts:
            raise ValueError(
                "theta_counts is empty: shared execution needs at least "
                "one member query's θc"
            )
        duplicates = sorted({c for c in counts if counts.count(c) > 1})
        if duplicates:
            raise ValueError(
                f"duplicate theta_counts {duplicates}: member queries "
                "must have distinct θc (duplicates would silently run "
                "the same pipeline twice)"
            )
        self.theta_range = float(theta_range)
        self.theta_counts = counts
        self.dimensions = int(dimensions)
        self._manage_provider = bool(manage_provider)
        if not self._manage_provider and provider is None:
            raise ValueError(
                "manage_provider=False means neighbors are injected by a "
                "coordinator; pass its provider (e.g. a rung view) so "
                "members know their radius source"
            )
        provider = resolve_provider(
            provider, backend, theta_range, dimensions
        )
        self.provider = provider
        # One SGS cell substrate for all members: an injected CellMap
        # (maintained here, purged by window stamps — the coordinator-fed
        # mode's arrangement), the provider itself when it is one (the
        # grid), otherwise a single coordinator-owned CellMap (rather
        # than one per member).
        substrate = cell_substrate(provider)
        if cells is not None:
            self.cells: CellMap = cells
            self._manage_cells = True
        elif substrate is not None:
            self.cells = substrate
            self._manage_cells = False
        else:
            self.cells = CellMap(theta_range, dimensions)
            self._manage_cells = True
        self.members: Dict[int, CSGS] = {
            count: CSGS(
                theta_range,
                count,
                dimensions,
                provider=self.provider,
                manage_grid=False,
                cells=self.cells,
            )
            for count in self.theta_counts
        }
        self.current_window = 0
        self._expiry_buckets: Dict[int, List[StreamObject]] = {}
        self.range_queries_run = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def remove_member(self, theta_count: int) -> CSGS:
        """Detach one member query (its θc); returns the detached
        pipeline. The shared substrate keeps running for the rest."""
        count = int(theta_count)
        member = self.members.pop(count, None)
        if member is None:
            raise KeyError(
                f"no member with theta_count {count}; members are "
                f"{sorted(self.members)}"
            )
        self.theta_counts = tuple(
            c for c in self.theta_counts if c != count
        )
        return member

    # ------------------------------------------------------------------
    # Window lifecycle (coordinator-facing; process_batch composes them)
    # ------------------------------------------------------------------

    def begin_window(self, window_index: int) -> None:
        """Slide every member to ``window_index``, purging expired
        objects from the shared substrate."""
        if self._manage_provider:
            self._purge(window_index)
        else:
            # The coordinator owns the search substrate; only the cell
            # substrate (stamped per-cohort clones) is purged here.
            if self._manage_cells:
                self.cells.purge_expired(window_index)
            self.current_window = window_index
        for member in self.members.values():
            member.begin_window(window_index)

    def ingest(
        self, obj: StreamObject, known: List[StreamObject]
    ) -> None:
        """Insert one object with its resolved neighbor list into every
        member pipeline (and the shared cell substrate)."""
        if self._manage_cells:
            self.cells.insert(obj)
        if self._manage_provider:
            self._expiry_buckets.setdefault(obj.last_window, []).append(obj)
        for member in self.members.values():
            member.ingest(obj, known)

    def emit(self, window_index: int) -> Dict[int, WindowOutput]:
        """Emit every member's window output: ``{theta_count: output}``."""
        return {
            count: member.emit(window_index)
            for count, member in self.members.items()
        }

    def _purge(self, window_index: int) -> None:
        for window in range(self.current_window, window_index):
            for obj in self._expiry_buckets.pop(window, ()):
                self.provider.remove(obj)
                if self._manage_cells:
                    self.cells.remove(obj)
        self.current_window = window_index

    def process_batch(self, batch: WindowBatch) -> Dict[int, WindowOutput]:
        """Process one slide for every member query.

        Returns ``{theta_count: WindowOutput}``.
        """
        if not self._manage_provider:
            raise ValueError(
                "a coordinator-fed SharedCSGS is driven through "
                "begin_window/ingest/emit, not process_batch"
            )
        self.begin_window(batch.index)
        new_objects = list(batch.new_objects)
        self.range_queries_run += len(new_objects)
        for obj, _, known in batched_neighborhoods(self.provider, new_objects):
            self.ingest(obj, known)
        return self.emit(batch.index)
