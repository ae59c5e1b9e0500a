"""The persistent inverted cell-signature index over the Pattern Base.

The PR-4 coarse screen walks a per-pattern multi-resolution ladder: for
every feature-filtered candidate it materializes the pattern's coarse
SGS (lazily, cached) and runs an alignment search against the coarse
query. That is per-candidate work proportional to the pattern's cell
structure, paid on the query hot path. Classic IR practice says the
archive should instead carry a precomputed *inverted index*: posting
lists keyed by the terms of each document, intersected at query time.

Here a pattern's "terms" are its **canonical-origin coarse-cell
coordinates**: translate the stored SGS so its minimum corner sits at
the origin (:func:`canonical_origin` — pure translations then coarsen
in phase), then floor-divide every cell location by ``factor**level``.
The resulting cell set is exactly the cell set of the matching engine's
canonical ladder rung (iterated floor division equals division by the
product), computed without building any intermediate SGS. Signatures
are maintained incrementally as patterns enter and leave the base —
streaming re-warm during archival, not at first query — and persisted
with the archive (its postings table), so a reloaded history serves its
first coarse query with zero ladder walks.

The screen itself is **certified conservative**. For two cell sets of
sizes ``a`` and ``b`` overlapping in ``m`` positions under some
alignment, the cell-level distance of :mod:`repro.matching.cell_match`
satisfies::

    distance >= (a + b - 2m) / (a + b - m)

(matched pairs contribute >= 0, every unmatched cell contributes
exactly 1, and the total is divided by ``a + b - m`` compared
positions). The bound is decreasing in ``m``, so any upper bound ``M``
on the overlap achievable under *any* alignment certifies a lower
bound on the distance under every alignment the anytime search could
ever return. Two overlap bounds are used, cheapest first:

* the posting-list counter ``m0`` (overlap at the canonical alignment,
  accumulated for all candidates in one pass over the query's posting
  lists) gives a *fast accept*: ``m0`` is achievable, so if the bound
  at ``m0`` is already within the threshold no upper bound can reject;
* the per-axis histogram cross-correlation: the overlap under a shift
  ``s`` is at most ``sum_v min(h_a[v], h_b[v + s_i])`` for every axis
  ``i`` (project the matched cells onto the axis), so
  ``M = min(a, b, min_i max_t corr_i(t))`` bounds every alignment.
  Histograms are tiny precomputed integer tuples in the signature.

A pattern is rejected only when the certified floor exceeds
``threshold + coarse_margin`` — therefore **every pattern the ladder
screen keeps, this screen keeps** (the ladder's anytime distance is at
least the true minimum, which is at least the floor), pinned by the
Hypothesis property suite. The ``min_coarse_cells`` stand-down of the
ladder screen is mirrored verbatim.
"""

from __future__ import annotations

from operator import sub
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.sgs import SGS

Coord = Tuple[int, ...]

#: Default coarse rung(s) indexed: one level above the stored
#: representation (the matching engine's default coarse entry).
DEFAULT_INVERTED_LEVELS: Tuple[int, ...] = (1,)

#: Default compression rate θ between rungs — must match the matching
#: engine's ladder factor (:data:`repro.retrieval.engine
#: .DEFAULT_LADDER_FACTOR`) for the signatures to describe the same
#: coarse cells the ladder screen would materialize.
DEFAULT_INVERTED_FACTOR = 3


def canonical_origin(sgs: SGS) -> SGS:
    """Translate an SGS so its minimum cell corner sits at the origin.

    Coarsening is *phase-sensitive*: ``floor(c / θ)`` cuts the coarse
    grid at absolute positions, so two identical clusters translated
    relative to each other coarsen into structurally different cell
    sets (a fine shift of 1 cannot be expressed as any integer coarse
    shift). Position-insensitive coarse screening therefore coarsens
    the canonicalized form — pure translations then coarsen
    identically, and the coarse distance tracks the fine one.
    """
    mins = tuple(map(min, zip(*sgs.rows)))
    if not any(mins):
        return sgs
    # A row moves with its cell: only the key changes.
    return SGS(
        {
            tuple(map(sub, location, mins)): row
            for location, row in sgs.rows.items()
        },
        sgs.side_length,
        level=sgs.level,
        cluster_id=sgs.cluster_id,
        window_index=sgs.window_index,
    )


def canonical_cell_signature(
    sgs: SGS, level: int, factor: int
) -> FrozenSet[Coord]:
    """The canonical-origin coarse-cell set of ``sgs`` at a rung.

    Equals ``set(coarsen_sgs^level(canonical_origin(sgs)).cells)``
    without building any SGS: iterated floor division by ``factor``
    is floor division by ``factor**level`` for integers.
    """
    if level < 1:
        raise ValueError("signature level must be at least 1")
    mins = tuple(map(min, zip(*sgs.rows)))
    scale = factor**level
    return frozenset(
        tuple((c - m) // scale for c, m in zip(coord, mins))
        for coord in sgs.rows
    )


def axis_histograms(
    cells: Iterable[Coord], dimensions: int
) -> Tuple[Tuple[int, ...], ...]:
    """Per-axis occupancy counts of a canonical cell set.

    Canonical cells are non-negative with a zero minimum per axis, so
    histogram index ``v`` counts the cells whose coordinate on that
    axis equals ``v``.
    """
    cells = list(cells)
    if not cells:
        return tuple(() for _ in range(dimensions))
    histograms = []
    for axis in range(dimensions):
        extent = max(coord[axis] for coord in cells) + 1
        counts = [0] * extent
        for coord in cells:
            counts[coord[axis]] += 1
        histograms.append(tuple(counts))
    return tuple(histograms)


def max_shift_correlation(
    h_a: Sequence[int], h_b: Sequence[int]
) -> int:
    """``max_t sum_v min(h_a[v], h_b[v + t])`` over all integer shifts.

    The 1-D min-correlation maximum: an upper bound on how many cells
    of the two sets can pair up under *any* alignment, as seen by one
    axis projection.
    """
    len_a, len_b = len(h_a), len(h_b)
    if not len_a or not len_b:
        return 0
    best = 0
    for t in range(-(len_a - 1), len_b):
        lo = max(0, -t)
        hi = min(len_a, len_b - t)
        total = 0
        for j in range(lo, hi):
            a_j = h_a[j]
            b_j = h_b[j + t]
            total += a_j if a_j < b_j else b_j
        if total > best:
            best = total
    return best


def distance_floor(size_a: int, size_b: int, overlap: int) -> float:
    """Certified lower bound on the cell-level distance between two
    cell sets of the given sizes, given an upper bound on their
    achievable overlap (see the module docstring)."""
    compared = size_a + size_b - overlap
    if compared <= 0:
        return 0.0
    floor = (size_a + size_b - 2 * overlap) / compared
    return floor if floor > 0.0 else 0.0


class CellSignature:
    """One pattern's precomputed coarse-cell signature at one rung."""

    __slots__ = ("cells", "size", "histograms")

    def __init__(self, cells: FrozenSet[Coord], dimensions: int):
        self.cells = cells
        self.size = len(cells)
        self.histograms = axis_histograms(cells, dimensions)

    def overlap_bound(self, other: "CellSignature") -> int:
        """Upper bound on ``|self ∩ (other + s)|`` over every shift."""
        bound = self.size if self.size < other.size else other.size
        for h_a, h_b in zip(self.histograms, other.histograms):
            if bound == 0:
                break
            axis_bound = max_shift_correlation(h_a, h_b)
            if axis_bound < bound:
                bound = axis_bound
        return bound

    def __repr__(self) -> str:
        return f"CellSignature(size={self.size})"


class InvertedCellIndex:
    """Posting lists keyed by canonical-origin coarse-cell coordinate.

    One instance serves one Pattern Base: per configured rung it keeps
    a ``cell -> {pattern ids}`` posting map plus the per-pattern
    :class:`CellSignature`, both updated incrementally on archival and
    removal. All reads the matching engine needs at query time —
    posting accumulation and signature lookups — touch only these
    precomputed structures, never the stored SGS cells.
    """

    def __init__(
        self,
        levels: Sequence[int] = DEFAULT_INVERTED_LEVELS,
        factor: int = DEFAULT_INVERTED_FACTOR,
    ):
        cleaned = tuple(sorted({int(level) for level in levels}))
        if not cleaned:
            raise ValueError("inverted index needs at least one level")
        if cleaned[0] < 1:
            raise ValueError("inverted levels must be >= 1")
        # A rung much past ~5 collapses every pattern to one cell:
        # reject out-of-range values here, before any mining work runs.
        if cleaned[-1] > 255:
            raise ValueError("inverted levels must be <= 255")
        if not 2 <= factor <= 255:
            raise ValueError("inverted factor must be in [2, 255]")
        self.levels = cleaned
        self.factor = int(factor)
        self._postings: Dict[int, Dict[Coord, Set[int]]] = {
            level: {} for level in self.levels
        }
        self._signatures: Dict[int, Dict[int, CellSignature]] = {}
        #: Maintenance + lookup telemetry, provider-style.
        self.stats = {
            "patterns": 0,
            "postings": 0,
            "lookups": 0,
            "posting_hits": 0,
        }

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------

    def add(self, pattern_id: int, sgs: SGS) -> None:
        """Index one archived pattern (computes its signatures)."""
        self.restore_signatures(
            pattern_id,
            {
                level: canonical_cell_signature(sgs, level, self.factor)
                for level in self.levels
            },
            sgs.dimensions,
        )

    def restore_signatures(
        self,
        pattern_id: int,
        cells_by_level: Mapping[int, Iterable[Coord]],
        dimensions: int,
    ) -> None:
        """Register precomputed signature cells (the persistence seam:
        a reopened archive feeds its stored postings straight in,
        skipping the coarsening arithmetic entirely)."""
        if pattern_id in self._signatures:
            raise ValueError(f"pattern {pattern_id} already indexed")
        missing = set(self.levels) - set(cells_by_level)
        if missing:
            raise ValueError(f"missing signature levels: {sorted(missing)}")
        signatures: Dict[int, CellSignature] = {}
        for level in self.levels:
            cells = frozenset(
                tuple(coord) for coord in cells_by_level[level]
            )
            signatures[level] = CellSignature(cells, dimensions)
            postings = self._postings[level]
            for cell in cells:
                bucket = postings.get(cell)
                if bucket is None:
                    bucket = postings[cell] = set()
                bucket.add(pattern_id)
            self.stats["postings"] += len(cells)
        self._signatures[pattern_id] = signatures
        self.stats["patterns"] += 1

    def remove(self, pattern_id: int) -> bool:
        """Drop one pattern's postings and signatures (eviction path)."""
        signatures = self._signatures.pop(pattern_id, None)
        if signatures is None:
            return False
        for level, signature in signatures.items():
            postings = self._postings[level]
            for cell in signature.cells:
                bucket = postings.get(cell)
                if bucket is None:
                    continue
                bucket.discard(pattern_id)
                if not bucket:
                    del postings[cell]
            self.stats["postings"] -= signature.size
        self.stats["patterns"] -= 1
        return True

    # ------------------------------------------------------------------
    # Query-time reads
    # ------------------------------------------------------------------

    def covers(self, level: int) -> bool:
        return level in self._postings

    def signature(
        self, pattern_id: int, level: int
    ) -> Optional[CellSignature]:
        signatures = self._signatures.get(pattern_id)
        if signatures is None:
            return None
        return signatures.get(level)

    def overlap_counts(
        self, cells: Iterable[Coord], level: int
    ) -> Dict[int, int]:
        """Posting-list accumulation: how many of ``cells`` each
        indexed pattern shares (absent = zero). One pass over the
        query's posting lists serves every candidate at once."""
        postings = self._postings[level]
        counts: Dict[int, int] = {}
        hits = 0
        for cell in cells:
            bucket = postings.get(cell)
            if not bucket:
                continue
            hits += len(bucket)
            for pattern_id in bucket:
                counts[pattern_id] = counts.get(pattern_id, 0) + 1
        self.stats["lookups"] += 1
        self.stats["posting_hits"] += hits
        return counts

    def pattern_ids(self) -> Iterator[int]:
        return iter(self._signatures.keys())

    def __contains__(self, pattern_id: int) -> bool:
        return pattern_id in self._signatures

    def __len__(self) -> int:
        return len(self._signatures)


class InvertedScreen:
    """One query's certified coarse screen, bound to an index.

    Built once per query execution: the query's own signature is
    computed up front, then :meth:`admits` is an O(1)-to-O(histogram)
    decision per candidate, memoized so batched serving can consult it
    repeatedly (shared pools re-screen per query) without
    double-counting the telemetry.

    The canonical-overlap counters come in two flavors, chosen by
    usage: :meth:`survivors` (the whole-archive gather of the planner's
    ``inverted`` entry) accumulates them for every candidate in one
    pass over the query's posting lists, while per-candidate
    :meth:`admits` calls on a screen that never gathered (a selective
    feature-grid entry touching a handful of candidates) intersect the
    two signature cell sets directly — identical counts, no
    archive-sized setup on the selective hot path.
    """

    __slots__ = (
        "index",
        "level",
        "query",
        "tau",
        "guard",
        "fast_accepted",
        "evaluated",
        "rejected",
        "_counters",
        "_verdicts",
    )

    def __init__(
        self,
        index: InvertedCellIndex,
        level: int,
        query_sgs: SGS,
        tau: float,
        guard: int,
    ):
        cells = canonical_cell_signature(query_sgs, level, index.factor)
        self.index = index
        self.level = level
        self.query = CellSignature(cells, query_sgs.dimensions)
        self.tau = float(tau)
        self.guard = int(guard)
        self.fast_accepted = 0
        self.evaluated = 0
        self.rejected = 0
        self._counters: Optional[Dict[int, int]] = None
        self._verdicts: Dict[int, bool] = {}

    def accumulate_counters(self) -> None:
        """Run the shared posting-list pass (idempotent)."""
        if self._counters is None:
            self._counters = self.index.overlap_counts(
                self.query.cells, self.level
            )

    def _canonical_overlap(
        self, pattern_id: int, signature: CellSignature
    ) -> int:
        """``|query ∩ pattern|`` at the canonical alignment, from the
        accumulated counters when available, else by direct cell-set
        intersection (same count either way)."""
        if self._counters is not None:
            return self._counters.get(pattern_id, 0)
        query_cells = self.query.cells
        small, large = (
            (query_cells, signature.cells)
            if len(query_cells) <= len(signature.cells)
            else (signature.cells, query_cells)
        )
        return sum(1 for cell in small if cell in large)

    def admits(self, pattern_id: int) -> bool:
        """False only when the certified distance floor exceeds τ."""
        verdict = self._verdicts.get(pattern_id)
        if verdict is None:
            verdict = self._decide(pattern_id)
            self._verdicts[pattern_id] = verdict
        return verdict

    def _decide(self, pattern_id: int) -> bool:
        signature = self.index.signature(pattern_id, self.level)
        if signature is None:
            # Not indexed (should not happen for a maintained index):
            # stand down conservatively, exactly like an unscreenable
            # candidate.
            return True
        q_size = self.query.size
        p_size = signature.size
        if q_size < self.guard or p_size < self.guard:
            # The ladder screen's min_coarse_cells stand-down, mirrored.
            return True
        m0 = self._canonical_overlap(pattern_id, signature)
        if distance_floor(q_size, p_size, m0) <= self.tau:
            # The canonical-alignment overlap is achievable, so no
            # sound upper bound can push the floor past τ: accept
            # without touching the per-pattern histograms.
            self.fast_accepted += 1
            return True
        self.evaluated += 1
        bound = self.query.overlap_bound(signature)
        if distance_floor(q_size, p_size, bound) > self.tau:
            self.rejected += 1
            return False
        return True

    def survivors(self, base) -> List[object]:
        """Every archived pattern the screen admits, ascending by
        pattern id (the planner's ``inverted`` entry gather). Ids whose
        pattern has left the base are skipped — stale postings can
        never resurrect an evicted pattern."""
        self.accumulate_counters()
        out = []
        for pattern_id in sorted(self.index.pattern_ids()):
            if self.admits(pattern_id):
                pattern = base.get(pattern_id)
                if pattern is not None:
                    out.append(pattern)
        return out
