"""Struct-of-arrays coordinate store: the vectorized refinement kernel.

Every neighbor-search backend answers the same fixed-radius (θr) query:
gather candidates cheaply from its spatial structure, then *refine* them
with the exact squared Euclidean distance. The refinement loop is the
innermost numeric kernel of every clustering method in the package
(Section 5.3: range-query search dominates per-object insertion cost),
and this module is its single implementation.

:class:`CoordStore` keeps live coordinates in column-major arrays — one
growable float64 column per dimension — owning the oid→row mapping and
tombstoned removal, so a refinement pass over k candidates is k fused
array operations instead of k·d interpreted Python steps. This module
alone decides which kernel runs, from what it can observe:

* NumPy imported — the store keeps NumPy columns and each call takes the
  array kernel when it carries at least ``_VECTOR_MIN_WORK`` of work;
* otherwise (no NumPy, or a small call) — the loop kernels below, which
  read ``obj.coords`` directly and need no columns.

Canonical summation order
-------------------------

Floating-point addition is not associative, so the two paths could
disagree on boundary points if they summed in different orders. The
canonical squared distance is pinned as **dimension-ascending sequential
accumulation** in IEEE-754 doubles::

    total = 0.0
    for each dimension j = 0..d-1:        # ascending, one at a time
        total = fl(total + fl((a_j - b_j) * (a_j - b_j)))

and the neighbor predicate is the boundary-inclusive ``total <= θr²``.
The vectorized kernels accumulate one *column* at a time in the same
ascending order, so every element undergoes the identical sequence of
IEEE operations and the totals are bit-equal to the scalar ones. The
scalar fast path (:func:`within_sq_range`) may stop accumulating as soon
as the partial sum exceeds θr²; that early exit is decision-equivalent
because partial sums of non-negative addends are monotone non-decreasing
under IEEE rounding. ``tests/test_properties_coordstore.py`` asserts
both facts rather than assuming them.

All results are emitted in candidate order (row order for whole-store
scans), so consumers observe byte-identical output from either path.
"""

from __future__ import annotations

from math import isfinite
from typing import Dict, List, Optional, Sequence, Tuple

from repro.streams.objects import StreamObject

try:  # NumPy is optional; the scalar kernels run when it is absent.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-NumPy CI job
    _np = None

HAVE_NUMPY = _np is not None


# ----------------------------------------------------------------------
# Canonical scalar kernels
# ----------------------------------------------------------------------


def canonical_sq_dist(a: Sequence[float], b: Sequence[float]) -> float:
    """The canonical squared distance: full dimension-ascending sum."""
    total = 0.0
    for ai, bi in zip(a, b):
        diff = ai - bi
        total += diff * diff
    return total


def within_sq_range(
    a: Sequence[float], b: Sequence[float], sq_range: float
) -> bool:
    """Exact refinement: canonical squared distance <= sq_range.

    Early-exits once the partial sum is no longer within ``sq_range`` —
    decision-equivalent to the full canonical sum because the partial
    sums are monotone non-decreasing (each addend is non-negative and
    IEEE addition of a non-negative value never decreases the
    accumulator). The test is written ``not total <= sq_range`` so a
    NaN sum fails it, as it fails the array kernels' ``<=`` mask.
    """
    total = 0.0
    for ai, bi in zip(a, b):
        diff = ai - bi
        total += diff * diff
        if not total <= sq_range:
            return False
    return True


class CandidateBatch:
    """Pre-gathered candidate set reusable across probes.

    Produced by :meth:`CoordStore.batch`; holds the candidate objects
    and (on the vector path, resolved lazily on first kernel use) their
    row indices as one array, so a batch of queries sharing a candidate
    set (e.g. all probes landing in one grid cell) pays the gather cost
    once — and not at all when every probe takes the small-batch scalar
    fallback.
    """

    __slots__ = ("objs", "rows")

    def __init__(self, objs: List[StreamObject], rows=None) -> None:
        self.objs = objs
        self.rows = rows

    def __len__(self) -> int:
        return len(self.objs)


class CoordStore:
    """Column-major coordinate table with batched distance kernels.

    Rows are append-only; removal tombstones the row (the oid mapping is
    dropped immediately, the column slot is reclaimed by periodic
    compaction). ``track_oids=False`` skips the oid→row mapping for
    static hosts that index rows positionally (the k-d tree's leaf
    spans) and may hold duplicate oids.
    """

    #: Compact once tombstones outnumber live rows (and are non-trivial).
    _COMPACT_MIN = 32

    #: Below this much kernel work (candidates × probes) the scalar loop
    #: beats the fixed per-call cost of the array kernels (row
    #: resolution + array allocation), so vector stores dispatch small
    #: refinements to the scalar path. Legal because both paths produce
    #: byte-identical results (same canonical summation order, same
    #: candidate order) — this is a pure performance crossover, pinned
    #: by the parity property suite. Measured crossover on the Figure-7
    #: 4-D workload sits around 40 candidates per probe.
    _VECTOR_MIN_WORK = 48

    def __init__(self, dimensions: int, track_oids: bool = True):
        if dimensions < 1:
            raise ValueError("dimensions must be positive")
        self.dimensions = int(dimensions)
        self._vector = _np is not None
        self._track_oids = track_oids
        self._row_of: Dict[int, int] = {}
        self._objs: List[Optional[StreamObject]] = []
        self._tombstones = 0
        if self._vector:
            self._cap = 64
            self._cols = [
                _np.empty(self._cap, dtype=_np.float64)
                for _ in range(self.dimensions)
            ]

    # ------------------------------------------------------------------
    # Row bookkeeping
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of live (non-tombstoned) rows."""
        return len(self._objs) - self._tombstones

    def __contains__(self, oid: int) -> bool:
        return oid in self._row_of

    def add(self, obj: StreamObject) -> int:
        """Append one object's coordinates; returns its row index."""
        coords = obj.coords
        if len(coords) != self.dimensions:
            raise ValueError(
                f"object {obj.oid} has {len(coords)} dimensions, "
                f"store expects {self.dimensions}"
            )
        if not all(map(isfinite, coords)):
            raise ValueError(
                f"object {obj.oid} has a non-finite coordinate: {coords}"
            )
        if self._track_oids:
            if obj.oid in self._row_of:
                raise KeyError(f"oid {obj.oid} already stored")
        row = len(self._objs)
        if self._vector:
            if row == self._cap:
                self._grow()
            for j, col in enumerate(self._cols):
                col[row] = coords[j]
        self._objs.append(obj)
        if self._track_oids:
            self._row_of[obj.oid] = row
        return row

    def remove(self, oid: int) -> None:
        """Tombstone the row of ``oid`` (raises KeyError when absent)."""
        if not self._track_oids:
            raise TypeError("store was built with track_oids=False")
        row = self._row_of.pop(oid, None)
        if row is None:
            raise KeyError(f"oid {oid} not present in coordinate store")
        self._objs[row] = None
        self._tombstones += 1
        if (
            self._tombstones > self._COMPACT_MIN
            and self._tombstones * 2 > len(self._objs)
        ):
            self._compact()

    def _grow(self) -> None:
        self._cap *= 2
        used = len(self._objs)
        grown = []
        for col in self._cols:
            new = _np.empty(self._cap, dtype=_np.float64)
            new[:used] = col[:used]
            grown.append(new)
        self._cols = grown

    def _compact(self) -> None:
        """Rewrite the columns with live rows only, preserving order."""
        live = [obj for obj in self._objs if obj is not None]
        self._objs = []
        self._row_of = {}
        self._tombstones = 0
        if self._vector:
            self._cap = max(64, 2 * len(live))
            self._cols = [
                _np.empty(self._cap, dtype=_np.float64)
                for _ in range(self.dimensions)
            ]
        for obj in live:
            self.add(obj)

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------

    def _acc_sq_dists(self, rows, probe: Sequence[float]):
        """Vector path: canonical sums for ``rows`` (array or slice).

        One column at a time in ascending dimension order — every
        element sees the exact IEEE operation sequence of
        :func:`canonical_sq_dist`.
        """
        cols = self._cols
        diff = cols[0][rows] - probe[0]
        acc = diff * diff
        for j in range(1, self.dimensions):
            diff = cols[j][rows] - probe[j]
            acc += diff * diff
        return acc

    def _check_probe(self, probe: Sequence[float]) -> None:
        if len(probe) != self.dimensions:
            raise ValueError(
                f"probe has {len(probe)} dimensions, "
                f"store expects {self.dimensions}"
            )

    def sq_dists_to(
        self, probe: Sequence[float], oids: Optional[Sequence[int]] = None
    ) -> List[float]:
        """Canonical squared distances to ``probe``.

        Over all live rows in row order by default, or over ``oids`` in
        the given order (KeyError for absent/tombstoned oids).
        """
        self._check_probe(probe)
        if oids is None:
            rows = [
                row for row, obj in enumerate(self._objs) if obj is not None
            ]
        else:
            rows = [self._row_of[oid] for oid in oids]
        if not rows:
            return []
        if self._vector:
            idx = _np.fromiter(rows, dtype=_np.intp, count=len(rows))
            return self._acc_sq_dists(idx, probe).tolist()
        return [
            canonical_sq_dist(self._objs[row].coords, probe) for row in rows
        ]

    def nearest_first(
        self, probe: Sequence[float], objs: Sequence[StreamObject]
    ) -> Tuple[List[StreamObject], List[float]]:
        """``objs`` and their canonical squared distances to ``probe``,
        both ascending by distance (sorted by index, stably: distance
        ties keep the given order and never compare StreamObjects)."""
        sq_dists = self.sq_dists_to(probe, [obj.oid for obj in objs])
        if self._vector and len(sq_dists) > 16:
            order = _np.argsort(_np.asarray(sq_dists), kind="stable").tolist()
        else:
            order = sorted(range(len(sq_dists)), key=sq_dists.__getitem__)
        return [objs[i] for i in order], [sq_dists[i] for i in order]

    def batch(self, objs: Sequence[StreamObject]) -> CandidateBatch:
        """Pre-gather a candidate set for repeated refinement.

        The batch snapshots row positions lazily; it is invalidated by
        any mutation of the store (add/remove may trigger compaction),
        so gather-and-refine must complete without interleaved updates.
        """
        return CandidateBatch(list(objs))

    def _batch_rows(self, batch: CandidateBatch):
        """Resolve (once) and return the batch's row-index array."""
        rows = batch.rows
        if rows is None:
            row_of = self._row_of
            rows = _np.fromiter(
                (row_of[obj.oid] for obj in batch.objs),
                dtype=_np.intp,
                count=len(batch.objs),
            )
            batch.rows = rows
        return rows

    @staticmethod
    def _refine_scalar(
        objs: Sequence[Optional[StreamObject]],
        probe: Sequence[float],
        sq_range: float,
        exclude_oid: int,
    ) -> List[StreamObject]:
        result = []
        for obj in objs:
            if (
                obj is not None
                and obj.oid != exclude_oid
                and within_sq_range(probe, obj.coords, sq_range)
            ):
                result.append(obj)
        return result

    def refine_batch(
        self,
        batch: CandidateBatch,
        probe: Sequence[float],
        sq_range: float,
        exclude_oid: int = -1,
    ) -> List[StreamObject]:
        """Exact-refine a pre-gathered candidate set against one probe."""
        self._check_probe(probe)
        objs = batch.objs
        if not objs:
            return []
        if self._vector and len(objs) >= self._VECTOR_MIN_WORK:
            acc = self._acc_sq_dists(self._batch_rows(batch), probe)
            result = []
            for i in _np.nonzero(acc <= sq_range)[0].tolist():
                obj = objs[i]
                if obj.oid != exclude_oid:
                    result.append(obj)
            return result
        return self._refine_scalar(objs, probe, sq_range, exclude_oid)

    def refine(
        self,
        objs: Sequence[StreamObject],
        probe: Sequence[float],
        sq_range: float,
        exclude_oid: int = -1,
    ) -> List[StreamObject]:
        """Exact-refine candidate objects against one probe."""
        self._check_probe(probe)
        if self._vector and len(objs) >= self._VECTOR_MIN_WORK:
            if not isinstance(objs, list):
                objs = list(objs)
            return self.refine_batch(
                CandidateBatch(objs), probe, sq_range, exclude_oid
            )
        return self._refine_scalar(objs, probe, sq_range, exclude_oid)

    def refine_many(
        self,
        batch: CandidateBatch,
        probes: Sequence[Sequence[float]],
        sq_range: float,
        exclude_oids: Optional[Sequence[int]] = None,
    ) -> List[List[StreamObject]]:
        """Refine one candidate set against many probes in one sweep.

        The vector path evaluates the whole probes × candidates distance
        matrix as d column operations (the grid's per-slide batch
        becomes one array sweep per occupied cell).
        """
        for probe in probes:
            self._check_probe(probe)
        objs = batch.objs
        if exclude_oids is None:
            exclude_oids = [-1] * len(probes)
        if not objs or not probes:
            return [[] for _ in probes]
        if self._vector and len(objs) * len(probes) >= self._VECTOR_MIN_WORK:
            cols = self._cols
            rows = self._batch_rows(batch)
            pmat = _np.array(probes, dtype=_np.float64)
            cand = cols[0][rows]
            diff = pmat[:, 0][:, None] - cand[None, :]
            acc = diff * diff
            for j in range(1, self.dimensions):
                cand = cols[j][rows]
                diff = pmat[:, j][:, None] - cand[None, :]
                acc += diff * diff
            mask = acc <= sq_range
            results = []
            for qi, exclude_oid in enumerate(exclude_oids):
                hits = []
                for i in _np.nonzero(mask[qi])[0].tolist():
                    obj = objs[i]
                    if obj.oid != exclude_oid:
                        hits.append(obj)
                results.append(hits)
            return results
        return [
            self.refine_batch(batch, probe, sq_range, exclude_oid)
            for probe, exclude_oid in zip(probes, exclude_oids)
        ]

    def refine_span(
        self,
        start: int,
        stop: int,
        probe: Sequence[float],
        sq_range: float,
        exclude_oid: int = -1,
    ) -> List[StreamObject]:
        """Exact-refine a contiguous row span (a k-d tree leaf)."""
        self._check_probe(probe)
        if self._vector and stop - start >= self._VECTOR_MIN_WORK:
            acc = self._acc_sq_dists(slice(start, stop), probe)
            objs = self._objs
            result = []
            for i in _np.nonzero(acc <= sq_range)[0].tolist():
                obj = objs[start + i]
                if obj is not None and obj.oid != exclude_oid:
                    result.append(obj)
            return result
        return self._refine_scalar(
            self._objs[start:stop], probe, sq_range, exclude_oid
        )

    def within_radius(
        self,
        probe: Sequence[float],
        sq_range: float,
        exclude_oid: int = -1,
    ) -> List[StreamObject]:
        """All live objects within the radius, in row order."""
        self._check_probe(probe)
        if not self._objs:
            return []
        if self._vector and len(self._objs) >= self._VECTOR_MIN_WORK:
            acc = self._acc_sq_dists(slice(0, len(self._objs)), probe)
            objs = self._objs
            result = []
            for i in _np.nonzero(acc <= sq_range)[0].tolist():
                obj = objs[i]
                if obj is not None and obj.oid != exclude_oid:
                    result.append(obj)
            return result
        return self._refine_scalar(self._objs, probe, sq_range, exclude_oid)
