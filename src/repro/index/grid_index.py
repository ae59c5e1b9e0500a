"""Uniform grid index over the data space.

This is both the range-query accelerator used by every clustering
algorithm in the package (one range query per new object — Section 5.3)
and the cell decomposition that underlies SGS itself: C-SGS builds its
skeletal grid cells directly on the cells of this index (Section 5.4).

Cell sizing follows Section 4.3: the *diagonal* of a cell equals the range
threshold θr, i.e. the side length is ``θr / sqrt(d)``. That guarantees
that any two objects in the same cell are neighbors, and it bounds the
cells that can contain neighbors of a point to those within
``ceil(sqrt(d))`` grid steps in every dimension — ``(2*reach + 1)^d``
cells, 625 in 4-D, nearly all of them empty. :class:`GridIndex` finds
the occupied ones through a coordinate trie of the occupied cells, so
a query pays for what is there, not for the size of that cube; the
walk carries each prefix's remaining gap budget down the trie, so from
5-D on it never enters the cells the θr-ball cannot reach, and no
per-dimensionality table is built.

The cell decomposition itself is factored out as :class:`CellMap`: the
pure coord→objects bookkeeping that C-SGS needs as its SGS substrate.
:class:`GridIndex` extends it with neighbor search and is the default
:class:`~repro.index.provider.NeighborProvider` backend; trackers that
run the k-d tree backend keep a bare
:class:`CellMap` alongside it for the skeletal-grid bookkeeping.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.geometry.coordstore import CoordStore
from repro.streams.objects import StreamObject

Coord = Tuple[int, ...]


def cell_side_for_range(theta_range: float, dimensions: int) -> float:
    """Return the grid side length whose cell diagonal equals θr."""
    if theta_range <= 0:
        raise ValueError("theta_range must be positive")
    if dimensions <= 0:
        raise ValueError("dimensions must be positive")
    return theta_range / math.sqrt(dimensions)


#: Relative slack of the per-probe bucket screen. Pruning must be
#: conservative: a cell whose true minimum gap to the probe equals θr
#: exactly can host a boundary-inclusive neighbor pair, and the gap
#: arithmetic here differs from the canonical refinement summation by a
#: few ulps. The slack only ever *admits* extra cells (refinement
#: discards them), never drops one.
OFFSET_PRUNE_EPS = 1e-9


class CellMap:
    """The θr-sized cell decomposition of the data space (SGS substrate).

    Cells are addressed by integer coordinate tuples
    ``floor(x_i / side)``; only non-empty cells are materialized. The map
    stores :class:`StreamObject` references and supports insertion,
    removal, expiration purge, and per-cell introspection — everything
    the skeletal-grid layer needs, *without* neighbor search.
    """

    def __init__(self, theta_range: float, dimensions: int):
        self.theta_range = float(theta_range)
        self.dimensions = int(dimensions)
        self.side = cell_side_for_range(theta_range, dimensions)
        self._cells: Dict[Coord, List[StreamObject]] = {}

    def cell_coord(self, coords: Sequence[float]) -> Coord:
        """Return the grid cell coordinate containing a point."""
        return tuple(int(math.floor(value / self.side)) for value in coords)

    def insert(self, obj: StreamObject) -> Coord:
        """Insert an object; returns its cell coordinate."""
        coord = self.cell_coord(obj.coords)
        bucket = self._cells.get(coord)
        if bucket is None:
            bucket = []
            self._cells[coord] = bucket
        bucket.append(obj)
        return coord

    def remove(self, obj: StreamObject) -> None:
        """Remove an object previously inserted (raises if absent)."""
        coord = self.cell_coord(obj.coords)
        bucket = self._cells.get(coord)
        if bucket is None or obj not in bucket:
            raise KeyError(f"object {obj.oid} not present in grid")
        bucket.remove(obj)
        if not bucket:
            self._drop_cell(coord)

    def purge_expired(self, window_index: int) -> int:
        """Drop every object whose last window precedes ``window_index``.

        Returns the number of objects removed. This is the only
        expiration work the lifespan-based algorithms perform.
        """
        removed: List[StreamObject] = []
        empty: List[Coord] = []
        for coord, bucket in self._cells.items():
            kept = [obj for obj in bucket if obj.last_window >= window_index]
            if len(kept) != len(bucket):
                removed.extend(
                    obj for obj in bucket if obj.last_window < window_index
                )
            if kept:
                bucket[:] = kept
            else:
                empty.append(coord)
        for coord in empty:
            self._drop_cell(coord)
        if removed:
            self._purged(removed)
        return len(removed)

    def _drop_cell(self, coord: Coord) -> None:
        """Unlink an emptied cell — the one place a bucket dies, so a
        subclass mirroring the occupied cells (the grid's coordinate
        trie) extends exactly this."""
        del self._cells[coord]

    def _purged(self, objects: List[StreamObject]) -> None:
        """Hook: subclasses keeping auxiliary per-object state (the
        grid's coordinate store) drop the purged objects here."""

    def objects_in_cell(self, coord: Coord) -> List[StreamObject]:
        """Return the live objects stored in one cell (empty list if none)."""
        return list(self._cells.get(coord, ()))

    def occupied_cells(self) -> Iterator[Coord]:
        return iter(self._cells.keys())

    def cell_population(self, coord: Coord) -> int:
        return len(self._cells.get(coord, ()))

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._cells.values())

    def __iter__(self) -> Iterator[StreamObject]:
        for bucket in self._cells.values():
            yield from bucket

    def bulk_load(self, objects: Iterable[StreamObject]) -> None:
        for obj in objects:
            self.insert(obj)


class GridIndex(CellMap):
    """A dictionary-backed uniform grid with range-query search.

    Extends :class:`CellMap` with the two query operations of the
    :class:`~repro.index.provider.NeighborProvider` protocol: single
    range queries (all objects within θr of a point) and batched
    ``range_query_many`` (one candidate-gathering pass per distinct base
    cell instead of one per query). Candidate refinement runs through a
    :class:`~repro.geometry.coordstore.CoordStore`: the whole candidate
    set of a query (union of reachable buckets) is refined in one
    batched kernel call instead of a per-point coordinate loop.

    Finding the occupied cells within reach of a base cell costs what
    *is* there, not what could be: the occupied cells are mirrored in a
    coordinate trie — one ``dict`` level per axis, the last mapping the
    final coordinate to the bucket list itself, kept at bucket birth
    and death — and a walk descends only into children that exist:
    at most ``2*reach + 1`` int-keyed probes per populated prefix
    instead of one tuple-keyed probe per cell of the ``(2*reach + 1)^d``
    cube (625 in 4-D, where a few per cent hit). A walk that cheap is not
    worth caching: ``range_query`` walks per call, ``range_query_many``
    once per distinct base cell of the batch. Per query the reachable
    buckets are screened against the probe (or probe-box) θr-ball
    before refinement.
    """

    def __init__(self, theta_range: float, dimensions: int):
        super().__init__(theta_range, dimensions)
        # Neighbors of a point can lie at most ceil(sqrt(d)) cells away
        # in each dimension because theta_range == side * sqrt(d).
        self.reach = int(math.ceil(math.sqrt(self.dimensions)))
        self._sq_range = self.theta_range * self.theta_range
        # A step of delta cells on one axis leaves a gap of
        # max(|delta| - 1, 0) sides, i.e. that squared over d in units
        # of θr²; a cell is reachable while the integer sum of those
        # squares stays within d. ``_steps[left]`` lists, in ascending
        # step order, the steps a prefix with ``left`` budget can take
        # and the budget each leaves.
        self._steps = tuple(
            tuple(
                (step, left - cost)
                for step in range(-self.reach, self.reach + 1)
                if (cost := max(abs(step) - 1, 0) ** 2) <= left
            )
            for left in range(self.dimensions + 1)
        )
        self._store = CoordStore(dimensions)
        # Invariant: the trie's leaves are exactly the items of
        # ``_cells``. Buckets are aliased, not copied, so in-place
        # bucket mutations (append, ``bucket[:] = kept``) need no hook.
        self._trie: Dict[int, object] = {}
        self._sq_prune_limit = self._sq_range * (1.0 + OFFSET_PRUNE_EPS)
        #: Gathering telemetry: probes answered, candidates handed to
        #: refinement (per probe), and trie walks.
        self.stats = {"queries": 0, "candidates": 0, "walks": 0}

    def insert(self, obj: StreamObject) -> Coord:
        # Cell, then store, then bucket: a non-finite coordinate (or one
        # too large for the grid) has no cell, and the store validates
        # (duplicate oid, dimensionality, finiteness); both raise before
        # any structure is touched.
        try:
            coord = self.cell_coord(obj.coords)
        except (ValueError, OverflowError):
            raise ValueError(
                f"object {obj.oid} has a non-finite coordinate: {obj.coords}"
            ) from None
        self._store.add(obj)
        bucket = self._cells.get(coord)
        if bucket is None:
            bucket = self._cells[coord] = []
            node = self._trie
            for value in coord[:-1]:
                node = node.setdefault(value, {})
            node[coord[-1]] = bucket
        bucket.append(obj)
        return coord

    def remove(self, obj: StreamObject) -> None:
        super().remove(obj)  # raises before the store is touched
        self._store.remove(obj.oid)

    def _drop_cell(self, coord: Coord) -> None:
        super()._drop_cell(coord)
        path = [self._trie]
        for value in coord[:-1]:
            path.append(path[-1][value])
        # The leaf goes, and with it every ancestor it leaves empty.
        for node, value in zip(reversed(path), reversed(coord)):
            del node[value]
            if node:
                break

    def _purged(self, objects: List[StreamObject]) -> None:
        for obj in objects:
            self._store.remove(obj.oid)

    def _reachable_buckets(
        self, base: Coord
    ) -> List[Tuple[Coord, List[StreamObject]]]:
        """The occupied cells a query from ``base`` can reach, as
        ``(offset, bucket)`` pairs in lexicographic offset order.

        One trie level per axis: every populated prefix is extended by
        the steps whose child exists and whose gap its budget still
        covers, in ascending step order, so the pairs come out sorted
        without a sort and without building a tuple for an empty cell.
        The budget keeps exactly the cells whose minimum gap to the base
        cell is at most θr: under the diagonal sizing nothing is cut
        through 4-D, and from 5-D on most of the ``(2*reach + 1)^d``
        cube is never entered.
        """
        self.stats["walks"] += 1
        steps = self._steps
        level = [((), self._trie, self.dimensions)]
        for center in base[:-1]:
            level = [
                (prefix + (step,), child, rest)
                for prefix, node, left in level
                for step, rest in steps[left]
                if (child := node.get(center + step)) is not None
            ]
        # The last axis emits the pairs: no budget is left to carry,
        # and re-packing them would add a pass over every reachable
        # bucket.
        center = base[-1]
        return [
            (prefix + (step,), bucket)
            for prefix, node, left in level
            for step, _ in steps[left]
            if (bucket := node.get(center + step)) is not None
        ]

    def _gather_candidates(
        self,
        entry: List[Tuple[Coord, List[StreamObject]]],
        base: Coord,
        lo: Sequence[float],
        hi: Sequence[float],
    ) -> List[StreamObject]:
        """Candidates among ``entry`` (the reachable buckets of ``base``)
        for probes bounded by the box ``[lo, hi]``.

        Buckets whose minimum distance to the probe box exceeds θr are
        skipped (``lo == hi`` for a single probe makes this an exact
        point-to-cell sphere test) — a per-query tightening of the
        offset-table pruning that cuts the candidate sets refinement
        sees even where the table itself is not prunable (d <= 4). The
        per-axis gap² of every offset step is precomputed once per call
        (``d * (2*reach+1)`` values), so screening a bucket costs d
        table lookups. Skipping never changes results: every true
        neighbor lies in a bucket that passes, and survivors keep their
        walk order, so the refined output is byte-identical to a walk
        that screens nothing.
        """
        if not entry:
            return []
        side = self.side
        reach = self.reach
        limit = self._sq_prune_limit
        # gap_sq[axis][delta + reach]: squared gap between the probe box
        # and the slab of cells ``delta`` steps from base on ``axis``.
        gap_sq = []
        for axis in range(self.dimensions):
            lo_a = lo[axis]
            hi_a = hi[axis]
            base_a = base[axis]
            row = []
            for delta in range(-reach, reach + 1):
                cell_lo = (base_a + delta) * side
                gap = cell_lo - hi_a  # probe box below the slab
                if gap <= 0.0:
                    gap = lo_a - (cell_lo + side)  # box above the slab
                    if gap <= 0.0:
                        gap = 0.0
                row.append(gap * gap)
            gap_sq.append(row)
        candidates: List[StreamObject] = []
        # When even the farthest slab combination stays within θr of the
        # probe box (always true for a box spanning the whole cell in
        # d <= 4 under diagonal sizing), screening cannot skip anything:
        # take the plain union and save the per-bucket arithmetic.
        worst = 0.0
        for row in gap_sq:
            worst += max(row)
        if worst <= limit:
            for _, bucket in entry:
                candidates.extend(bucket)
            return candidates
        for offset, bucket in entry:
            sq = 0.0
            for axis, delta in enumerate(offset):
                sq += gap_sq[axis][delta + reach]
            if sq <= limit:
                candidates.extend(bucket)
        return candidates

    def range_query(
        self, coords: Sequence[float], exclude_oid: int = -1
    ) -> List[StreamObject]:
        """Return all stored objects within θr of ``coords``.

        ``exclude_oid`` omits the query object itself when it has already
        been inserted. The whole candidate set is refined in one store
        kernel call (boundary-inclusive <= θr², canonical summation
        order — see :mod:`repro.geometry.coordstore`; the parity suite
        pins the agreement across backends and kernel arms).
        """
        self._store._check_probe(coords)
        base = self.cell_coord(coords)
        candidates = self._gather_candidates(
            self._reachable_buckets(base), base, coords, coords
        )
        self.stats["queries"] += 1
        self.stats["candidates"] += len(candidates)
        return self._store.refine(
            candidates, coords, self._sq_range, exclude_oid
        )

    def range_query_many(
        self, queries: Sequence[Tuple[Sequence[float], int]]
    ) -> List[List[StreamObject]]:
        """Batched range queries: ``[(coords, exclude_oid), ...]``.

        The reachable buckets depend only on the query's base cell, so
        queries are grouped by *distinct* base cell: candidates are
        gathered (and their store rows resolved) once per group — pruned
        against the bounding box of the group's probes — and all of the
        group's probes are refined in a single batched kernel sweep; on
        clustered window batches the C-SGS per-slide batch becomes one
        array pass per occupied cell.

        A cell's probes are further sub-grouped per *octant* (their
        position relative to the cell center, axis by axis): a box
        spanning the whole cell keeps every reachable bucket within θr
        in low dimensions, so the batched path pruned nothing where the
        point-query path prunes per probe. Per-octant sub-boxes are at
        most half a cell wide per axis, restoring most of that pruning
        while still amortizing the gather over the co-located probes
        (the reachable-bucket walk runs once per base cell either way).
        Sub-grouping is pure partitioning of exact refinement — results
        are byte-identical to the whole-cell box.
        """
        if not queries:
            return []
        query_indices_by_base: Dict[Coord, List[int]] = {}
        check_probe = self._store._check_probe
        for qi, (coords, _) in enumerate(queries):
            check_probe(coords)
            base = self.cell_coord(coords)
            query_indices_by_base.setdefault(base, []).append(qi)
        results: List[List[StreamObject]] = [[] for _ in queries]
        sq_range = self._sq_range
        dims = range(self.dimensions)
        side = self.side
        for base, indices in query_indices_by_base.items():
            self.stats["queries"] += len(indices)
            entry = self._reachable_buckets(base)
            if len(indices) > 1:
                center = tuple(
                    (base[axis] + 0.5) * side for axis in dims
                )
                by_octant: Dict[Tuple[bool, ...], List[int]] = {}
                for qi in indices:
                    coords = queries[qi][0]
                    octant = tuple(
                        coords[axis] >= center[axis] for axis in dims
                    )
                    by_octant.setdefault(octant, []).append(qi)
                groups = list(by_octant.values())
            else:
                groups = [indices]
            for group in groups:
                probes = [queries[qi][0] for qi in group]
                if len(probes) == 1:
                    lo = hi = probes[0]
                else:
                    lo = tuple(
                        min(p[axis] for p in probes) for axis in dims
                    )
                    hi = tuple(
                        max(p[axis] for p in probes) for axis in dims
                    )
                candidates = self._gather_candidates(entry, base, lo, hi)
                self.stats["candidates"] += len(candidates) * len(group)
                batch = self._store.batch(candidates)
                refined = self._store.refine_many(
                    batch,
                    probes,
                    sq_range,
                    [queries[qi][1] for qi in group],
                )
                for qi, matches in zip(group, refined):
                    results[qi] = matches
        return results
