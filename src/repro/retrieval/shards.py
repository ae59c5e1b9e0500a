"""Partitioning and planning of the sharded Pattern Base.

One Pattern Base answers one query at a time over one index. Heavy
multi-query traffic wants the classic database answer: *partition* the
archive into shards, plan and execute per shard, and merge. This module
provides the partitioning and planning halves; **where the shard work
runs** lives behind the deployment seam in :mod:`repro.serving`:

* :class:`ShardedPatternBase` — an archive partitioned over N plain
  :class:`~repro.archive.pattern_base.PatternBase` shards behind the
  same public surface (``add`` / ``restore`` / ``remove`` / ``get`` /
  index probes / ``all_patterns``), so the archiver, the retention
  manager, and persistence all work unchanged. Patterns route to a
  shard by **window span** (``window_index`` striped round-robin — the
  natural key for history-range queries) or by **feature-grid region**
  (a deterministic mix of the pattern's non-locational feature bins —
  the natural key for similarity workloads).
* :class:`ShardedMatchEngine` — a thin facade: one
  :class:`~repro.retrieval.engine.MatchEngine` per shard (every query
  is planned *per shard* — a shard with selective local ranges probes
  its feature grid while a sibling scans), one owned
  :class:`~repro.serving.executors.ShardExecutor` deciding where the
  per-shard work runs (``serial`` in-process, ``process`` on
  multiprocessing workers hydrated from SQLite shard dumps), and
  the deterministic
  merge of :mod:`repro.serving.merge`: concatenate, sort by
  ``(distance, pattern_id)`` (the same stable tie-break the single
  engine uses), cut to ``top_k`` after the merge. Distances are
  per-pattern computations independent of placement, so the merged
  output is **identical** to a single unsharded engine's — and
  identical across executors — which the oracle equivalence suite,
  the executor-parity suite, and the sharded golden fixture pin byte
  for byte.

The facade owns its executor: construct with ``mode=``, ``close()`` it
— or use the engine as a context manager — when done. Per-query
stats aggregate provider-style: the plan reports ``entry="sharded"``
with the shard count and each shard's own entry choice, and the phase
counters are sums over shards.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.archive.pattern_base import (
    DEFAULT_BIN_WIDTHS,
    ArchivedPattern,
    PatternBase,
)
from repro.core.sgs import SGS
from repro.geometry.mbr import MBR
from repro.matching.metric import DistanceMetricSpec
from repro.retrieval.engine import (
    DEFAULT_COARSE_MARGIN,
    DEFAULT_LADDER_FACTOR,
    MIN_COARSE_CELLS,
    EngineStats,
    MatchEngine,
    MatchResult,
)
from repro.retrieval.inverted import InvertedCellIndex
from repro.retrieval.queries import MatchQuery

#: The supported partition keys.
PARTITION_KEY_WINDOW = "window"
PARTITION_KEY_FEATURE = "feature"
PARTITION_KEYS = (PARTITION_KEY_WINDOW, PARTITION_KEY_FEATURE)

#: Plan-entry label of a merged sharded execution (canonically defined
#: in :mod:`repro.serving.merge`; mirrored here for callers of the
#: planning layer that never touch the serving package).
ENTRY_SHARDED = "sharded"

# Large odd multipliers for the feature-region mix (the classic spatial
# hashing constants): deterministic across processes, unlike str hashes.
_MIX = (73856093, 19349663, 83492791, 2971215073)


def validate_partition_key(key: str) -> str:
    if key not in PARTITION_KEYS:
        raise ValueError(
            f"unknown partition key {key!r}; expected one of "
            f"{PARTITION_KEYS}"
        )
    return key


class _ShardedInvertedView:
    """Read-only merged view of the shards' inverted indices.

    A plain
    :class:`~repro.retrieval.engine.MatchEngine` built directly over a
    sharded base (instead of the usual :class:`ShardedMatchEngine`)
    screens through it: the full query-time read surface —
    ``overlap_counts`` / ``pattern_ids`` / ``signature`` — merges
    across shards (pattern ids are disjoint, so counter dicts union
    without conflict)."""

    __slots__ = ("_sharded", "levels", "factor")

    def __init__(self, sharded: "ShardedPatternBase", levels, factor):
        self._sharded = sharded
        self.levels = levels
        self.factor = factor

    def covers(self, level: int) -> bool:
        return level in self.levels

    def signature(self, pattern_id: int, level: int):
        shard = self._sharded.shard_of(pattern_id)
        if shard is None:
            return None
        index = shard.inverted_index()
        if index is None:
            return None
        return index.signature(pattern_id, level)

    def overlap_counts(self, cells, level: int) -> Dict[int, int]:
        cells = list(cells)
        counts: Dict[int, int] = {}
        for shard in self._sharded.shards():
            counts.update(shard.inverted_index().overlap_counts(cells, level))
        return counts

    def pattern_ids(self) -> Iterator[int]:
        for shard in self._sharded.shards():
            yield from shard.inverted_index().pattern_ids()

    def __contains__(self, pattern_id: int) -> bool:
        return self.signature(pattern_id, self.levels[0]) is not None

    def __len__(self) -> int:
        return sum(
            len(shard.inverted_index() or ())
            for shard in self._sharded.shards()
        )


class _ShardedFeatureIndexView:
    """The planner-facing read surface of the shards' feature grids
    (candidate gathering itself goes through
    :meth:`ShardedPatternBase.in_feature_ranges`)."""

    __slots__ = ("_shards",)

    def __init__(self, shards: Sequence[PatternBase]):
        self._shards = shards

    def covers_occupied_extent(self, lows, highs) -> bool:
        """True when the ranges cover every occupied bin of every
        shard — exactly the union-archive predicate, since a bin is
        occupied in the union iff it is occupied in some shard."""
        return all(
            shard.feature_index().covers_occupied_extent(lows, highs)
            for shard in self._shards
            if len(shard)
        )


class ShardedPatternBase:
    """A Pattern Base partitioned over N independent shards."""

    def __init__(
        self,
        shard_count: int,
        partition_key: str = PARTITION_KEY_WINDOW,
        bin_widths: Sequence[float] = DEFAULT_BIN_WIDTHS,
        inverted_levels: Optional[Sequence[int]] = None,
        inverted_factor: int = 3,
    ):
        if shard_count < 1:
            raise ValueError("shard_count must be positive")
        self.partition_key = validate_partition_key(partition_key)
        self.bin_widths = tuple(float(w) for w in bin_widths)
        self._shards = [
            PatternBase(
                self.bin_widths,
                inverted_levels=inverted_levels,
                inverted_factor=inverted_factor,
            )
            for _ in range(shard_count)
        ]
        self._owner: Dict[int, int] = {}
        self._next_id = 0
        #: Durable system of record behind the serving-time shard
        #: layout (see :meth:`from_base`): new ingests write through to
        #: it, removals delete from it. ``None`` = in-memory only.
        self._origin_store = None

    @classmethod
    def from_base(
        cls,
        base: PatternBase,
        shard_count: int,
        partition_key: str = PARTITION_KEY_WINDOW,
        inverted_levels: Optional[Sequence[int]] = None,
        inverted_factor: Optional[int] = None,
    ) -> "ShardedPatternBase":
        """Partition an existing archive (e.g. a freshly loaded one).

        Pattern ids are preserved, and each shard copies its patterns
        into its own in-memory store. The inverted-index configuration
        is inherited from the source base unless given explicitly; when
        the source already carries signatures at the wanted rungs
        (a reopened or loaded archive), they are *transferred* to the
        shard indices rather than recomputed — partitioning never
        repeats the coarsening arithmetic the stored postings exist to
        skip. The source base should be discarded afterwards.

        When the source base sits on a durable store (``sqlite:PATH``),
        that store stays the system of record: shard layout is a
        serving-time choice, so the sharded base adopts it as the
        origin store — new ingests commit there before being
        acknowledged, and removals delete there.
        """
        source_index = base.inverted_index()
        if inverted_levels is None and source_index is not None:
            inverted_levels = source_index.levels
        if inverted_factor is None:
            inverted_factor = (
                source_index.factor if source_index is not None else 3
            )
        transferable = (
            inverted_levels is not None
            and source_index is not None
            and source_index.factor == inverted_factor
            and all(source_index.covers(lv) for lv in inverted_levels)
        )
        sharded = cls(
            shard_count,
            partition_key,
            inverted_levels=None if transferable else inverted_levels,
            inverted_factor=inverted_factor,
        )
        for pattern in sorted(
            base.all_patterns(), key=lambda p: p.pattern_id
        ):
            sharded.restore(pattern)
        if transferable:
            for shard in sharded._shards:
                index = InvertedCellIndex(inverted_levels, inverted_factor)
                for pattern in shard.all_patterns():
                    index.restore_signatures(
                        pattern.pattern_id,
                        {
                            level: source_index.signature(
                                pattern.pattern_id, level
                            ).cells
                            for level in index.levels
                        },
                        pattern.sgs.dimensions,
                    )
                shard.attach_inverted(index)
        source_store = getattr(base, "store", None)
        if source_store is not None and source_store.durable:
            sharded._origin_store = source_store
        return sharded

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------

    def shard_for(self, pattern: ArchivedPattern) -> int:
        """The shard index a pattern routes to (pure function of the
        pattern and the partition key — placement never depends on
        arrival order)."""
        count = len(self._shards)
        if count == 1:
            return 0
        if self.partition_key == PARTITION_KEY_WINDOW:
            return pattern.window_index % count
        mixed = 0
        for value, width, salt in zip(
            pattern.features.as_tuple(), self.bin_widths, _MIX
        ):
            mixed ^= int(value // width) * salt
        return mixed % count

    def shards(self) -> List[PatternBase]:
        return list(self._shards)

    def shard_of(self, pattern_id: int) -> Optional[PatternBase]:
        index = self._owner.get(pattern_id)
        if index is None:
            return None
        return self._shards[index]

    def shard_index_of(self, pattern_id: int) -> Optional[int]:
        """The shard index currently owning a pattern (None when the
        pattern is not archived) — how the serving layer routes an
        ingest to the one worker whose shard changed."""
        return self._owner.get(pattern_id)

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shard_sizes(self) -> List[int]:
        return [len(shard) for shard in self._shards]

    # ------------------------------------------------------------------
    # The PatternBase surface
    # ------------------------------------------------------------------

    def add(self, sgs: SGS, full_size: int) -> ArchivedPattern:
        pattern = ArchivedPattern(self._next_id, sgs, full_size)
        return self.restore(pattern)

    def restore(self, pattern: ArchivedPattern) -> ArchivedPattern:
        if pattern.pattern_id in self._owner:
            raise ValueError(
                f"pattern id {pattern.pattern_id} already archived"
            )
        index = self.shard_for(pattern)
        stored = self._shards[index].restore(pattern)
        if (
            self._origin_store is not None
            and pattern.pattern_id not in self._origin_store
        ):
            try:
                self._write_through(index, stored)
            except BaseException:
                self._shards[index].remove(pattern.pattern_id)
                raise
        self._owner[pattern.pattern_id] = index
        self._next_id = max(self._next_id, pattern.pattern_id + 1)
        return stored

    def _write_through(
        self, shard_index: int, pattern: ArchivedPattern
    ) -> None:
        """Commit a freshly-archived pattern to the origin store — with
        the signatures the owning shard just computed — so the durable
        record exists before the ingest is acknowledged."""
        from repro.archive.store import feature_bins_for

        inverted = self._shards[shard_index].inverted_index()
        signatures = None
        inverted_config = None
        if inverted is not None:
            signatures = {
                level: inverted.signature(pattern.pattern_id, level).cells
                for level in inverted.levels
            }
            inverted_config = (
                inverted.levels,
                inverted.factor,
                pattern.sgs.dimensions,
            )
        self._origin_store.put(
            pattern,
            bins=feature_bins_for(
                pattern.features.as_tuple(), self.bin_widths
            ),
            signatures=signatures,
            inverted_config=inverted_config,
        )

    def remove(self, pattern_id: int) -> bool:
        index = self._owner.pop(pattern_id, None)
        if index is None:
            return False
        removed = self._shards[index].remove(pattern_id)
        if removed and self._origin_store is not None:
            self._origin_store.delete(pattern_id)
        return removed

    def get(self, pattern_id: int) -> Optional[ArchivedPattern]:
        shard = self.shard_of(pattern_id)
        if shard is None:
            return None
        return shard.get(pattern_id)

    def overlapping(self, mbr: MBR) -> List[ArchivedPattern]:
        out: List[ArchivedPattern] = []
        for shard in self._shards:
            out.extend(shard.overlapping(mbr))
        return out

    def in_feature_ranges(
        self, lows: Sequence[float], highs: Sequence[float]
    ) -> List[ArchivedPattern]:
        out: List[ArchivedPattern] = []
        for shard in self._shards:
            out.extend(shard.in_feature_ranges(lows, highs))
        return out

    def all_patterns(self) -> Iterator[ArchivedPattern]:
        for shard in self._shards:
            yield from shard.all_patterns()

    def feature_index(self) -> _ShardedFeatureIndexView:
        """Merged read view of the shards' feature grids (what the
        query planner consults when a plain engine serves a sharded
        base directly)."""
        return _ShardedFeatureIndexView(self._shards)

    def subscribe(self, listener) -> None:
        for shard in self._shards:
            shard.subscribe(listener)

    def enable_inverted(self, levels: Sequence[int], factor: int = 3):
        for shard in self._shards:
            shard.enable_inverted(levels, factor)
        return self.inverted_index()

    def inverted_index(self):
        """A merged read view over the shards' inverted indices (None
        unless every shard carries one)."""
        indices = [shard.inverted_index() for shard in self._shards]
        if any(index is None for index in indices):
            return None
        return _ShardedInvertedView(
            self, indices[0].levels, indices[0].factor
        )

    def summary_bytes(self) -> int:
        return sum(shard.summary_bytes() for shard in self._shards)

    @property
    def store(self):
        """The durable origin store behind the shard layout, or
        ``None`` when the archive is in-memory only."""
        return self._origin_store

    def store_info(self) -> dict:
        """JSON-able description of the backing store (for ``/stats``)."""
        if self._origin_store is not None:
            return self._origin_store.describe()
        return {
            "backend": "memory",
            "durable": False,
            "patterns": len(self),
        }

    def close(self) -> None:
        """Release the origin store and the shard bases; idempotent."""
        for shard in self._shards:
            shard.close()
        if self._origin_store is not None:
            self._origin_store.close()

    def __len__(self) -> int:
        return len(self._owner)

    def __contains__(self, pattern_id: int) -> bool:
        return pattern_id in self._owner


class ShardedMatchEngine:
    """Fan matching queries out across an archive's shards and merge.

    The constructor builds one :class:`MatchEngine` per shard with
    identical configuration; each engine plans its own shard (entry
    choices may differ per shard) and screens with its shard's own
    inverted index and ladder cache. Execution goes through one owned
    :class:`~repro.serving.executors.ShardExecutor` for the facade's
    lifetime:

    * ``mode`` picks the deployment mode (``"serial"`` /
      ``"process"``); without it the shards run serially in process;
    * ``replicas`` spawns that many process workers per shard (implies
      ``mode="process"`` when no mode is given): reads route
      round-robin across live replicas, and a worker dying mid-task
      fails over to a sibling instead of stalling on a respawn;
    * ``executor`` injects a prebuilt executor (the facade then does
      not own its lifecycle).

    Whatever runs the shards, the merged answers are identical. Call
    :meth:`close` (or use the engine as a context manager) to release
    the owned executor's worker processes.
    """

    def __init__(
        self,
        base: ShardedPatternBase,
        spec: Optional[DistanceMetricSpec] = None,
        max_alignment_expansions: int = 32,
        coarse_level: int = 0,
        coarse_margin: float = DEFAULT_COARSE_MARGIN,
        ladder_factor: int = DEFAULT_LADDER_FACTOR,
        min_coarse_cells: int = MIN_COARSE_CELLS,
        use_inverted: bool = True,
        mode: Optional[str] = None,
        replicas: int = 1,
        executor=None,
    ):
        # Imported here, not at module level: repro.serving sits above
        # the retrieval layer and imports the engine, so a top-level
        # import would be circular.
        from repro.serving.executors import build_executor
        from repro.serving.merge import merge_shard_results

        self._merge_results = merge_shard_results
        self.base = base
        self.engines = [
            MatchEngine(
                shard,
                spec=spec,
                max_alignment_expansions=max_alignment_expansions,
                coarse_level=coarse_level,
                coarse_margin=coarse_margin,
                ladder_factor=ladder_factor,
                min_coarse_cells=min_coarse_cells,
                use_inverted=use_inverted,
            )
            for shard in base.shards()
        ]
        self.spec = self.engines[0].spec
        self.coarse_level = self.engines[0].coarse_level
        self.max_alignment_expansions = (
            self.engines[0].max_alignment_expansions
        )
        self.replicas = max(1, int(replicas))
        if executor is not None:
            self._executor = executor
            self._owns_executor = False
        else:
            self._executor = build_executor(
                mode,
                self.engines,
                base=base,
                replicas=self.replicas,
                worker_config={
                    "metric": {
                        "position_sensitive": self.spec.position_sensitive,
                        "weights": dict(self.spec.weights),
                    },
                    "max_alignment_expansions": max_alignment_expansions,
                    "coarse_level": coarse_level,
                    "coarse_margin": coarse_margin,
                    "ladder_factor": ladder_factor,
                    "min_coarse_cells": min_coarse_cells,
                    "use_inverted": use_inverted,
                },
            )
            self._owns_executor = True

    @property
    def executor(self):
        """The owned (or injected) deployment-mode executor."""
        return self._executor

    @property
    def mode(self) -> str:
        return self._executor.mode

    @property
    def parallel(self) -> bool:
        return self._executor.parallel

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the owned executor (its shard workers, if any);
        idempotent. An injected executor is the injector's to close."""
        if self._owns_executor:
            self._executor.close()

    def __enter__(self) -> "ShardedMatchEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def ingest(self, sgs: SGS, full_size: int) -> ArchivedPattern:
        """Archive a new pattern *and* propagate it to the executor's
        shard copy (process workers hold hydrated replicas; in-process
        modes share :attr:`base` and need no propagation)."""
        pattern = self.base.add(sgs, full_size)
        self._executor.ingest(
            self.base.shard_index_of(pattern.pattern_id), pattern
        )
        return pattern

    def match(
        self, query: MatchQuery
    ) -> Tuple[List[MatchResult], EngineStats]:
        """One query against every shard; merged deterministically."""
        per_shard = self._executor.match(query)
        return self._merge_results(per_shard, query, self.parallel)

    def match_many(
        self, queries: Sequence[MatchQuery]
    ) -> List[Tuple[List[MatchResult], EngineStats]]:
        """Batched serving: each shard runs the whole batch through its
        own shared-gather ``match_many``, the shards run concurrently,
        and each query's per-shard answers merge as in :meth:`match`."""
        if not queries:
            return []
        per_shard = self._executor.match_many(queries)
        out: List[Tuple[List[MatchResult], EngineStats]] = []
        for qi, query in enumerate(queries):
            out.append(
                self._merge_results(
                    [shard_out[qi] for shard_out in per_shard],
                    query,
                    self.parallel,
                )
            )
        return out
