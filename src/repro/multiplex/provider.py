"""Multi-resolution neighbor provider: one substrate, many θr values.

Queries multiplexed over one stream rarely agree on θr. This module
serves all of them from **one** hierarchical cell structure by snapping
each query's θr onto a rung of a geometric ladder anchored at the first
query's radius::

    θ(level) = anchor · factor ** level        (level ∈ ℤ, factor ≥ 2)

The ladder is the same geometric cell hierarchy as SGS multi-resolution
coarsening (:mod:`repro.core.multires`): a rung's cells nest ``factor``
per axis inside the next rung's cells (:func:`~repro.core.multires.\
parent_coord` is the nesting relation, and :meth:`MultiResolutionProvider.\
nesting_of` reports it for any rung against the top one).

Snapping is **exact-match only**: a θr joins a rung iff it equals
``anchor · factor ** level`` bit-for-bit. With the default ``factor=2``
the rung radii are exact IEEE-754 scalings of the anchor, so every
snapped query's radius *is* its rung radius — which is what makes the
parity guarantee unconditional: filtering the top-rung gather by the
rung radius observes exactly the neighbor set a dedicated θr index
would return (the Hypothesis suite pins this). A θr that does not hit a
rung is reported unsnappable and the scheduler falls back to a
dedicated provider for it (the A/B escape hatch forces that fallback
for every query).

Query answering is batched: the provider keeps one gather
:class:`~repro.index.grid_index.GridIndex` at the **top active rung**
(the coarsest radius any registered query needs) plus one master
:class:`~repro.geometry.coordstore.CoordStore`, and answers a whole
window batch with a single ``range_query_many`` pass at the top radius.
Per-rung filtering happens on the exact canonical squared distances
(the same kernels every backend refines through), so finer rungs read
their neighbor lists out of the shared pass for free.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.multires import parent_coord
from repro.geometry.coordstore import CoordStore
from repro.index.grid_index import GridIndex
from repro.streams.objects import StreamObject

__all__ = ["MultiResolutionProvider", "RungView"]


class MultiResolutionProvider:
    """Serve range queries at every rung of a geometric θr ladder.

    ``anchor_theta`` is rung 0 (by convention the first snapped query's
    θr); ``factor`` is the geometric step between rungs, validated by
    the same rule as SGS coarsening (at least 2). Rungs are reference
    counted by :meth:`acquire` / :meth:`release`; the gather index is
    (re)built whenever the top active rung changes — between batches,
    never inside one.
    """

    def __init__(
        self,
        anchor_theta: float,
        dimensions: int,
        factor: float = 2.0,
    ):
        if anchor_theta <= 0:
            raise ValueError("anchor_theta must be positive")
        if dimensions < 1:
            raise ValueError("dimensions must be positive")
        if factor < 2:
            # Same contract as repro.core.multires.coarsen_sgs.
            raise ValueError("ladder factor must be at least 2")
        self.anchor_theta = float(anchor_theta)
        self.dimensions = int(dimensions)
        self.factor = float(factor)
        #: Master coordinate rows: every live object, canonical kernels.
        self.store = CoordStore(self.dimensions)
        self._objects: Dict[int, StreamObject] = {}
        self._rung_refs: Dict[int, int] = {}
        self._gather: Optional[GridIndex] = None
        self._gather_level: Optional[int] = None
        self.stats: Dict[str, int] = {
            "range_query_batches": 0,
            "range_queries": 0,
            "gather_builds": 0,
        }

    # ------------------------------------------------------------------
    # The ladder
    # ------------------------------------------------------------------

    def theta_at(self, level: int) -> float:
        """Radius of rung ``level`` (levels may be negative)."""
        return self.anchor_theta * self.factor ** level

    def snap_level(self, theta_range: float) -> Optional[int]:
        """The rung whose radius equals ``theta_range`` exactly, if any.

        Exact float equality, never tolerance: an approximate snap
        would silently change the neighbor sets a query observes.
        """
        theta = float(theta_range)
        if theta <= 0:
            raise ValueError("theta_range must be positive")
        guess = round(math.log(theta / self.anchor_theta, self.factor))
        for level in (guess - 1, guess, guess + 1):
            if self.theta_at(level) == theta:
                return level
        return None

    def acquire(self, level: int) -> "RungView":
        """Reference a rung (one registered query reading it); returns
        the rung's provider-protocol view."""
        level = int(level)
        self._rung_refs[level] = self._rung_refs.get(level, 0) + 1
        self._sync_gather()
        return RungView(self, level)

    def release(self, level: int) -> None:
        level = int(level)
        refs = self._rung_refs.get(level, 0)
        if refs <= 0:
            raise KeyError(f"rung {level} has no active references")
        if refs == 1:
            del self._rung_refs[level]
        else:
            self._rung_refs[level] = refs - 1
        self._sync_gather()

    @property
    def top_level(self) -> Optional[int]:
        """The coarsest active rung (the gather radius), if any."""
        return self._gather_level

    def active_rungs(self) -> Dict[int, int]:
        """``{level: reference count}`` of the currently acquired rungs."""
        return dict(self._rung_refs)

    def _sync_gather(self) -> None:
        top = max(self._rung_refs) if self._rung_refs else None
        if top == self._gather_level:
            return
        if top is None:
            self._gather = None
            self._gather_level = None
            return
        gather = GridIndex(self.theta_at(top), self.dimensions)
        for obj in self._objects.values():
            gather.insert(obj)
        self._gather = gather
        self._gather_level = top
        self.stats["gather_builds"] += 1

    # ------------------------------------------------------------------
    # Objects
    # ------------------------------------------------------------------

    def remove(self, obj: StreamObject) -> None:
        """Drop one object from the substrate (master store + gather)."""
        if self._objects.pop(obj.oid, None) is None:
            raise KeyError(f"object {obj.oid} not present in substrate")
        self.store.remove(obj.oid)
        if self._gather is not None:
            self._gather.remove(obj)

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, oid: int) -> bool:
        return oid in self._objects

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------

    def batch_neighborhoods(
        self, objects: Sequence[StreamObject]
    ) -> List[Tuple[List[StreamObject], List[float]]]:
        """Insert a window batch and answer it with **one** batched pass.

        Returns, per probe object in order, its candidate neighbors
        within the *top* rung radius as parallel ``(neighbors,
        squared distances)`` lists **sorted ascending by distance** —
        distances from the canonical kernels, so a consumer cutting the
        prefix at ``sqdist <= θ²`` for any finer rung θ (a single
        bisect) observes exactly what a dedicated θ index would return.
        Candidate lists include earlier batch-mates *and* later ones
        (the whole batch is inserted first); per-query intra-batch
        crediting is the scheduler's job, as in
        :func:`~repro.index.provider.batched_neighborhoods`.
        """
        if self._gather is None:
            raise ValueError(
                "no active rung: acquire one before feeding the substrate"
            )
        objects = list(objects)
        for obj in objects:
            # Store first: it validates (duplicate oid, dimensionality)
            # and raises before gather membership is touched.
            self.store.add(obj)
            self._gather.insert(obj)
            self._objects[obj.oid] = obj
        neighbor_lists = self._gather.range_query_many(
            [(obj.coords, obj.oid) for obj in objects]
        )
        self.stats["range_query_batches"] += 1
        self.stats["range_queries"] += len(objects)
        out: List[Tuple[List[StreamObject], List[float]]] = []
        for obj, neighbors in zip(objects, neighbor_lists):
            if not neighbors:
                out.append(([], []))
                continue
            # Sort once here so every rung's radius cut is a bisect
            # over the prefix instead of a scan of the full top-rung
            # candidate list.
            out.append(self.store.nearest_first(obj.coords, neighbors))
        return out

    def range_query_at(
        self, coords: Sequence[float], level: int, exclude_oid: int = -1
    ) -> List[StreamObject]:
        """One range query at a rung's radius, served from the shared
        gather: top-rung candidates filtered by the rung's exact θ²."""
        if self._gather is None:
            raise ValueError(
                "no active rung: acquire one before querying the substrate"
            )
        if level > self._gather_level:
            raise ValueError(
                f"rung {level} is above the top active rung "
                f"{self._gather_level}"
            )
        candidates = self._gather.range_query(coords, exclude_oid=exclude_oid)
        if not candidates or level == self._gather_level:
            return candidates
        theta = self.theta_at(level)
        sq_range = theta * theta
        sq_dists = self.store.sq_dists_to(
            coords, [obj.oid for obj in candidates]
        )
        return [
            obj
            for obj, sq in zip(candidates, sq_dists)
            if sq <= sq_range
        ]

    # ------------------------------------------------------------------
    # Hierarchy accounting
    # ------------------------------------------------------------------

    def nesting_of(self, cells: Iterable[Tuple[int, ...]], level: int) -> int:
        """How many distinct *top-rung* cells a rung's occupied cells
        fold into, via the multi-resolution nesting relation.

        A diagnostic of the sharing structure (``repro multiplex``
        prints it): few parents per many fine cells means the rung's
        queries ride densely inside the shared gather cells. Cell
        *addressing* for correctness always uses each rung's own
        :class:`~repro.index.grid_index.CellMap`; this accounting uses
        the integer nesting relation, which is what it is for.
        """
        if self._gather_level is None:
            return 0
        span = int(round(self.factor ** (self._gather_level - level)))
        if span <= 1:
            return len(set(cells))
        return len({parent_coord(coord, span) for coord in cells})


class RungView:
    """A rung's read view of the shared substrate, shaped like a
    :class:`~repro.index.provider.NeighborProvider` for consumers that
    expect one (member pipelines hold it; mutation stays with the
    provider's owner — the slide scheduler)."""

    def __init__(self, provider: MultiResolutionProvider, level: int):
        self.provider = provider
        self.level = int(level)
        self.theta_range = provider.theta_at(level)
        self.dimensions = provider.dimensions

    def range_query(
        self, coords: Sequence[float], exclude_oid: int = -1
    ) -> List[StreamObject]:
        return self.provider.range_query_at(
            coords, self.level, exclude_oid=exclude_oid
        )

    def range_query_many(self, queries) -> List[List[StreamObject]]:
        return [
            self.range_query(coords, exclude_oid=exclude_oid)
            for coords, exclude_oid in queries
        ]

    def __len__(self) -> int:
        return len(self.provider)

    def __repr__(self) -> str:
        return (
            f"RungView(level={self.level}, theta_range={self.theta_range})"
        )
