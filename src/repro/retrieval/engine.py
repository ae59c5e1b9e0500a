"""The coarse-to-fine matching engine over the Pattern Base.

Execution of one :class:`~repro.retrieval.queries.MatchQuery` is a
filter-and-refine ladder, cheapest predicate first:

1. **Plan + gather** — :mod:`repro.retrieval.planner` picks the entry
   index (R-tree / feature grid / scan) and gathers candidates.
2. **Screen** — exact window-range and feature-constraint predicates.
3. **Cluster-feature filter** — the cheap cluster-level distance on the
   four SGS features (plus the locational term when position
   sensitive); candidates already beyond the threshold stop here. This
   is the paper's "only ~6% need the grid-level match" filter.
4. **Coarse entry** (optional, ``coarse_level > 0``) — cell-level match
   at a coarser rung of the multi-resolution ladder (Section 6.1),
   built lazily per pattern and cached against its archive record;
   candidates whose coarse distance exceeds ``threshold +
   coarse_margin`` are rejected without ever touching their full
   stored cells. Position-insensitive
   screening coarsens *canonicalized* forms (:func:`canonical_origin`)
   so that translated near-duplicates coarsen in phase. The margin keeps the
   screen conservative — coarsening smooths cell structure, so a
   coarse distance is an estimate, not a bound; the margin absorbs
   that estimation error (the oracle equivalence suite pins that the
   default margin drops nothing on seeded archives; ``margin >= 1``
   makes the screen vacuous and hence exact by construction). The
   screen also stands down for candidates whose coarse form shrinks
   below ``min_coarse_cells`` — a 1–4 cell summary estimates too
   noisily to reject on, and refines for pennies.
5. **Refine** — the expensive stored-resolution cell-level match
   (:mod:`repro.matching.cell_match`, through the anytime alignment
   search when position-insensitive); survivors within the threshold
   are returned closest-first.

When the Pattern Base carries an inverted cell-signature index
(:mod:`repro.retrieval.inverted`) covering the query's coarse level,
step 4 runs against precomputed posting lists and signatures instead of
the lazily built per-pattern ladder: one posting-list accumulation per
query, then an O(1)-to-O(histogram) certified bound per candidate —
zero ladder walks on the hot path, and provably never rejecting a
candidate the ladder screen would keep. The planner may additionally
pick the index as the *entry* (``inverted``) when the feature ranges
have no filtering power, replacing the full archive scan with the
screen's survivor set.

:meth:`MatchEngine.match_many` serves a batch of queries through one
shared candidate gather per entry index (the union box / union MBR),
then screens the shared pool per query — identical results to
query-at-a-time execution, with the index probed once per batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.archive.pattern_base import ArchivedPattern, PatternBase
from repro.core.features import ClusterFeatures
from repro.core.multires import coarsen_sgs
from repro.core.sgs import SGS
from repro.geometry.mbr import MBR
from repro.matching.alignment import anytime_alignment_search
from repro.matching.cell_match import cell_level_distance
from repro.matching.metric import DistanceMetricSpec, cluster_feature_distance
from repro.retrieval import planner
from repro.retrieval.inverted import InvertedScreen, canonical_origin
from repro.retrieval.queries import MatchQuery

__all__ = [
    "DEFAULT_COARSE_MARGIN",
    "DEFAULT_LADDER_FACTOR",
    "EngineStats",
    "MatchEngine",
    "MatchResult",
    "MIN_COARSE_CELLS",
    "canonical_origin",
]

#: Default compression rate θ of the engine's resolution ladder (the
#: multires default; see :func:`repro.core.multires.coarsen_sgs`).
DEFAULT_LADDER_FACTOR = 3

#: Default slack added to the threshold at the coarse entry level.
#: Calibration: with canonical-phase coarsening and the
#: ``min_coarse_cells`` guard, the worst observed coarse-over-fine
#: error across the pinned workloads is ~0.11 (guard-skipped pairs can
#: err far worse, which is why the guard exists); the margin sits at
#: ~2x that. The oracle equivalence suite and the benchmark gate pin
#: that nothing is dropped at this setting.
DEFAULT_COARSE_MARGIN = 0.25

#: Below this many cells a coarse SGS carries too little structure for
#: a trustworthy distance estimate (a 1–4 cell summary mismatching a
#: neighbor can read near 1.0 against a true distance of 0.4), and is
#: cheap to refine directly anyway: the coarse screen skips it.
MIN_COARSE_CELLS = 6


@dataclass(frozen=True)
class MatchResult:
    """One matched pattern with its refined distance."""

    pattern: ArchivedPattern
    distance: float
    alignment: tuple


@dataclass
class EngineStats:
    """Per-query execution accounting, phase by phase."""

    archive_size: int = 0
    #: The planner's report: entry index, candidates gathered, whether
    #: the gather was shared across a batch.
    plan: Dict[str, object] = field(default_factory=dict)
    screened: int = 0
    feature_filtered: int = 0
    coarse_evaluated: int = 0
    coarse_rejected: int = 0
    #: Candidates the inverted screen accepted straight off the posting
    #: counters, without touching their signature histograms.
    coarse_fast_accepted: int = 0
    #: Which coarse screen ran: "ladder", "inverted", or "" (no coarse
    #: entry for this query).
    coarse_screen: str = ""
    refined: int = 0
    matches: int = 0

    @property
    def entry(self) -> str:
        return str(self.plan.get("entry", ""))

    @property
    def gathered(self) -> int:
        return int(self.plan.get("gathered", 0))

    @property
    def refine_fraction(self) -> float:
        """Fraction of archived clusters that needed the stored-level
        cell match."""
        if self.archive_size == 0:
            return 0.0
        return self.refined / self.archive_size

class MatchEngine:
    """Filter-and-refine retrieval over one Pattern Base.

    ``coarse_level`` / ``coarse_margin`` set the default multi-
    resolution entry (a query's own ``coarse_level`` wins when set);
    ``max_alignment_expansions`` budgets the anytime alignment search at
    the stored level, ``coarse_expansions`` at coarse rungs (coarse
    SGS are small, so a reduced budget suffices). Per-pattern coarse
    rungs are built lazily and cached against the archive record the
    base handed out (never the stored-resolution summary, which stays
    behind the store's LRU); each build is recorded in the pattern's
    ``ladder_hint`` so a persisted archive (format v2) can re-warm the
    cache after reload via :meth:`warm_ladders`. A stored summary is
    immutable once archived; replacing it is remove + ``restore``.
    """

    def __init__(
        self,
        base: PatternBase,
        spec: Optional[DistanceMetricSpec] = None,
        max_alignment_expansions: int = 32,
        coarse_level: int = 0,
        coarse_margin: float = DEFAULT_COARSE_MARGIN,
        ladder_factor: int = DEFAULT_LADDER_FACTOR,
        min_coarse_cells: int = MIN_COARSE_CELLS,
        use_inverted: bool = True,
    ):
        if max_alignment_expansions < 1:
            raise ValueError("max_alignment_expansions must be positive")
        if coarse_level < 0:
            raise ValueError("coarse_level must be non-negative")
        if coarse_margin < 0:
            raise ValueError("coarse_margin must be non-negative")
        if ladder_factor < 2:
            raise ValueError("ladder_factor must be at least 2")
        self.base = base
        self.spec = spec if spec is not None else DistanceMetricSpec()
        self.max_alignment_expansions = int(max_alignment_expansions)
        self.coarse_level = int(coarse_level)
        self.coarse_margin = float(coarse_margin)
        self.ladder_factor = int(ladder_factor)
        self.min_coarse_cells = int(min_coarse_cells)
        #: When False the engine ignores any inverted cell-signature
        #: index on the base and always screens through the lazy
        #: ladder — the A/B escape hatch the benchmarks compare.
        self.use_inverted = bool(use_inverted)
        self.coarse_expansions = max(8, self.max_alignment_expansions // 2)
        #: Ladder cache keyed ``(pattern_id, canonical)``: position-
        #: insensitive screens use the canonical-origin phase (see
        #: :func:`canonical_origin`), position-sensitive ones the raw
        #: absolute phase. Values are ``(record, [rung1, rung2, ...])``;
        #: an entry answers only for that very record, and remove +
        #: restore under the same id makes a new one.
        self._ladders: Dict[
            Tuple[int, bool], Tuple[ArchivedPattern, List[SGS]]
        ] = {}
        # Eviction and compaction flow back through the base's removal
        # listeners: the engine drops the dead pattern's cached ladders
        # the moment it leaves the archive (weakly held — neither side
        # pins the other).
        subscribe = getattr(base, "subscribe", None)
        if subscribe is not None:
            subscribe(self)

    def pattern_removed(self, pattern_id: int) -> None:
        """Base removal-listener hook: invalidate the pattern's cached
        ladders so eviction can never resurrect it from the cache."""
        self.invalidate(pattern_id)

    # ------------------------------------------------------------------
    # Multi-resolution ladder cache
    # ------------------------------------------------------------------

    def pattern_at_level(
        self, pattern: ArchivedPattern, level: int, canonical: bool = True
    ) -> SGS:
        """The pattern's SGS ``level`` coarsening steps above its stored
        representation (level 0 = the stored SGS itself, canonicalized
        to the origin when ``canonical``). Level 0 is read from the
        store on demand, never cached; a hit on a coarser rung costs no
        hydration and no coarsening."""
        if level <= 0:
            return canonical_origin(pattern.sgs) if canonical else pattern.sgs
        key = (pattern.pattern_id, canonical)
        cached = self._ladders.get(key)
        if cached is None or cached[0] is not pattern:
            cached = (pattern, [])
            self._ladders[key] = cached
        rungs = cached[1]
        while len(rungs) < level:
            below = (
                rungs[-1]
                if rungs
                else self.pattern_at_level(pattern, 0, canonical)
            )
            rungs.append(coarsen_sgs(below, self.ladder_factor))
        if pattern.ladder_hint < len(rungs):
            pattern.ladder_hint = len(rungs)
        return rungs[level - 1]

    def warm_ladders(self) -> int:
        """Rebuild each pattern's cached ladder up to its persisted
        ``ladder_hint`` (in the engine default spec's phase); returns
        the number of levels materialized."""
        canonical = not self.spec.position_sensitive
        built = 0
        for pattern in self.base.all_patterns():
            if pattern.ladder_hint > 0:
                self.pattern_at_level(
                    pattern, pattern.ladder_hint, canonical=canonical
                )
                built += pattern.ladder_hint
        return built

    def invalidate(self, pattern_id: Optional[int] = None) -> None:
        """Drop cached ladders (for one pattern, or all of them)."""
        if pattern_id is None:
            self._ladders.clear()
        else:
            for canonical in (False, True):
                self._ladders.pop((pattern_id, canonical), None)

    def cached_ladder_levels(self) -> int:
        """Total coarser levels currently materialized (telemetry)."""
        return sum(len(rungs) for _, rungs in self._ladders.values())

    def _maybe_prune_ladders(self) -> None:
        """Drop ladders of patterns evicted from the base.

        Removal paths (budget eviction, retention sweeps) do not know
        about engines, so a long-lived engine over a churning archive
        would otherwise pin every dead pattern's ladder forever. The
        sweep is amortized: it only runs once the cache outgrows twice
        the live archive (both phases counted)."""
        if len(self._ladders) <= 2 * max(16, len(self.base)):
            return
        self._ladders = {
            key: value
            for key, value in self._ladders.items()
            if key[0] in self.base
        }

    # ------------------------------------------------------------------
    # Single-query serving
    # ------------------------------------------------------------------

    def _inverted_screen_for(
        self, query: MatchQuery
    ) -> Optional[InvertedScreen]:
        """The certified posting-list screen for one query, when the
        base's inverted index covers its coarse level (position-
        insensitive only: the canonical-origin keys normalize exactly
        the translations that mode ignores)."""
        if (
            not self.use_inverted
            or query.coarse_level <= 0
            or query.metric.position_sensitive
        ):
            return None
        index_of = getattr(self.base, "inverted_index", None)
        index = index_of() if index_of is not None else None
        if index is None or not index.covers(query.coarse_level):
            return None
        if index.factor != self.ladder_factor:
            # A mismatched compression rate describes different coarse
            # cells than the ladder would: stand down rather than screen
            # against the wrong rung geometry.
            return None
        return InvertedScreen(
            index,
            query.coarse_level,
            query.sgs,
            query.threshold + self.coarse_margin,
            self.min_coarse_cells,
        )

    def match(
        self, query: MatchQuery
    ) -> Tuple[List[MatchResult], EngineStats]:
        """Execute one matching query; returns (results, stats) with
        results sorted by (distance, pattern_id) and cut to ``top_k``."""
        self._maybe_prune_ladders()
        features = ClusterFeatures.from_sgs(query.sgs)
        mbr = query.sgs.mbr()
        screen = self._inverted_screen_for(query)
        plan = planner.plan_query(
            self.base, query, features, mbr, inverted=screen is not None
        )
        if plan.entry == planner.ENTRY_INVERTED:
            candidates = screen.survivors(self.base)
        else:
            candidates = planner.gather(self.base, plan)
        stats = EngineStats(
            archive_size=len(self.base),
            plan=planner.plan_stats(plan, len(self.base), len(candidates)),
        )
        results = self._refine(
            query, features, mbr, candidates, plan, stats, screen
        )
        return results, stats

    def match_sgs(
        self,
        sgs: SGS,
        threshold: float,
        top_k: Optional[int] = None,
        spec: Optional[DistanceMetricSpec] = None,
        coarse_level: Optional[int] = None,
        window_range: Optional[Tuple[int, int]] = None,
    ) -> Tuple[List[MatchResult], EngineStats]:
        """Convenience wrapper: build the :class:`MatchQuery` from parts
        (engine defaults fill the metric and coarse level)."""
        return self.match(
            MatchQuery(
                sgs=sgs,
                threshold=threshold,
                top_k=top_k,
                metric=spec if spec is not None else self.spec,
                window_range=window_range,
                coarse_level=(
                    self.coarse_level if coarse_level is None else coarse_level
                ),
            )
        )

    # ------------------------------------------------------------------
    # Batched serving
    # ------------------------------------------------------------------

    def match_many(
        self, queries: Sequence[MatchQuery]
    ) -> List[Tuple[List[MatchResult], EngineStats]]:
        """Serve a batch of queries, amortizing candidate gathering.

        Queries are grouped by entry index; each group probes its index
        *once* with the union of the group's search boxes (union MBR
        for the R-tree, per-dimension union ranges for the feature
        grid) and every member screens the shared pool with its own
        exact predicates — the same predicates its solo index probe
        would have applied, so results are identical to calling
        :meth:`match` per query. Scan-entry queries share the single
        archive walk.
        """
        self._maybe_prune_ladders()
        prepared = []
        for query in queries:
            features = ClusterFeatures.from_sgs(query.sgs)
            mbr = query.sgs.mbr()
            screen = self._inverted_screen_for(query)
            plan = planner.plan_query(
                self.base, query, features, mbr, inverted=screen is not None
            )
            prepared.append((query, features, mbr, plan, screen))

        groups: Dict[str, List[int]] = {}
        for i, entry_plan in enumerate(prepared):
            groups.setdefault(entry_plan[3].entry, []).append(i)

        pools: Dict[str, List[ArchivedPattern]] = {}
        for entry, members in groups.items():
            if entry == planner.ENTRY_RTREE:
                union_mbr = prepared[members[0]][2]
                for i in members[1:]:
                    union_mbr = union_mbr.union(prepared[i][2])
                pools[entry] = self.base.overlapping(union_mbr)
            elif entry == planner.ENTRY_FEATURE_GRID:
                lows = list(prepared[members[0]][3].lows)
                highs = list(prepared[members[0]][3].highs)
                for i in members[1:]:
                    plan = prepared[i][3]
                    lows = [min(a, b) for a, b in zip(lows, plan.lows)]
                    highs = [max(a, b) for a, b in zip(highs, plan.highs)]
                pools[entry] = self.base.in_feature_ranges(lows, highs)
            elif entry == planner.ENTRY_INVERTED:
                # Shared pool = union of the members' survivor sets;
                # each member's refine re-applies its own (memoized)
                # screen, so pooling never changes that query's answer.
                pooled: Dict[int, ArchivedPattern] = {}
                for i in members:
                    for pattern in prepared[i][4].survivors(self.base):
                        pooled[pattern.pattern_id] = pattern
                pools[entry] = [
                    pooled[pattern_id] for pattern_id in sorted(pooled)
                ]
            else:
                pools[entry] = list(self.base.all_patterns())

        out: List[Tuple[List[MatchResult], EngineStats]] = []
        shared = len(queries) > 1
        for query, features, mbr, plan, screen in prepared:
            pool = pools[plan.entry]
            stats = EngineStats(
                archive_size=len(self.base),
                plan=planner.plan_stats(
                    plan, len(self.base), len(pool), shared=shared
                ),
            )
            out.append(
                (
                    self._refine(
                        query, features, mbr, pool, plan, stats, screen
                    ),
                    stats,
                )
            )
        return out

    # ------------------------------------------------------------------
    # The coarse-to-fine refiner
    # ------------------------------------------------------------------

    def _cell_distance(
        self,
        query_sgs: SGS,
        pattern_sgs: SGS,
        spec: DistanceMetricSpec,
        expansions: int,
    ) -> Tuple[float, tuple]:
        if spec.position_sensitive:
            return (
                cell_level_distance(query_sgs, pattern_sgs, spec, None),
                (0,) * query_sgs.dimensions,
            )
        search = anytime_alignment_search(
            query_sgs, pattern_sgs, spec, max_expansions=expansions
        )
        return search.distance, search.alignment

    def _refine(
        self,
        query: MatchQuery,
        features: ClusterFeatures,
        mbr: MBR,
        candidates: Sequence[ArchivedPattern],
        plan: planner.QueryPlan,
        stats: EngineStats,
        screen: Optional[InvertedScreen] = None,
    ) -> List[MatchResult]:
        spec = query.metric
        threshold = query.threshold
        coarse_level = query.coarse_level
        screened = planner.screen(
            candidates, query, mbr, lows=plan.lows, highs=plan.highs
        )
        stats.screened = len(screened)
        canonical = not spec.position_sensitive
        use_ladder = coarse_level > 0 and screen is None
        if coarse_level > 0:
            stats.coarse_screen = "ladder" if use_ladder else "inverted"
        if use_ladder:
            coarse_query = (
                canonical_origin(query.sgs) if canonical else query.sgs
            )
            for _ in range(coarse_level):
                coarse_query = coarsen_sgs(coarse_query, self.ladder_factor)
            # A query too small at the coarse rung stands the screen
            # down for every candidate: decide that once, before any
            # candidate's rung is hydrated or coarsened.
            use_ladder = len(coarse_query) >= self.min_coarse_cells

        results: List[MatchResult] = []
        for pattern in screened:
            coarse = cluster_feature_distance(
                features, pattern.features, spec, mbr, pattern.mbr
            )
            if coarse > threshold:
                continue
            stats.feature_filtered += 1
            if screen is not None:
                if not screen.admits(pattern.pattern_id):
                    continue
            elif use_ladder:
                coarse_pattern = self.pattern_at_level(
                    pattern, coarse_level, canonical=canonical
                )
                if len(coarse_pattern) >= self.min_coarse_cells:
                    stats.coarse_evaluated += 1
                    coarse_distance, _ = self._cell_distance(
                        coarse_query,
                        coarse_pattern,
                        spec,
                        self.coarse_expansions,
                    )
                    if coarse_distance > threshold + self.coarse_margin:
                        stats.coarse_rejected += 1
                        continue
            stats.refined += 1
            distance, alignment = self._cell_distance(
                query.sgs,
                pattern.sgs,
                spec,
                self.max_alignment_expansions,
            )
            if distance <= threshold:
                results.append(MatchResult(pattern, distance, alignment))

        if screen is not None:
            # The screen's counters cover its whole lifetime for this
            # query — gather-phase survivors and refine-phase rescreens
            # alike (verdicts are memoized, so nothing double-counts).
            stats.coarse_evaluated = screen.evaluated
            stats.coarse_rejected = screen.rejected
            stats.coarse_fast_accepted = screen.fast_accepted
        results.sort(key=lambda r: (r.distance, r.pattern.pattern_id))
        stats.matches = len(results)
        if query.top_k is not None:
            results = results[: query.top_k]
        return results
