"""The Pattern Base: organized storage of archived cluster summaries.

Section 7.1: archived clusters are organized by *two* feature indices —
an R-tree over each cluster's MBR (the locational feature index) and a
4-D grid over the non-locational features captured by SGS (volume, status
count, average density, average connectivity). Matching queries use one
or the other to locate candidates, depending on position sensitivity.

The pattern records themselves live in a SQLite database
(:mod:`repro.archive.store`): in memory by default, or on disk in WAL
mode (``store="sqlite:PATH"``) where every :meth:`PatternBase.restore`
commits one transaction before returning — crash-safe continuous
archival, with the query-time indices rebuilt from stored metadata on
reopen and summaries hydrated lazily through the store's cache.
"""

from __future__ import annotations

import weakref
from typing import Iterator, List, Optional, Sequence, Union

from repro.core.features import ClusterFeatures
from repro.core.sgs import SGS
from repro.eval.memory import sgs_bytes
from repro.geometry.mbr import MBR
from repro.index.feature_grid import FeatureGridIndex
from repro.index.rtree import RTree

#: Default feature-grid bin widths for (volume, core_count, avg_density,
#: avg_connectivity). Bins only affect lookup speed, never results.
DEFAULT_BIN_WIDTHS = (16.0, 8.0, 2.0, 1.0)


class ArchivedPattern:
    """One archived cluster: its index keys, its summary in a store.

    ``ArchivedPattern(pattern_id, sgs, full_size)`` is a pattern on its
    way into a base and carries its summary; the base's store files it
    and hands back the record every index and engine holds, whose
    ``sgs`` the store serves on access. The record is the unit of
    identity: a summary is immutable once archived (replacing one is
    ``remove`` + ``restore``, which makes a new record), so caches key
    on the record itself.
    """

    __slots__ = (
        "pattern_id",
        "features",
        "mbr",
        "window_index",
        "full_size",
        "_sgs",
        "_store",
        "_nbytes",
    )

    def __init__(self, pattern_id: int, sgs: SGS, full_size: int):
        self.pattern_id = int(pattern_id)
        self.features = ClusterFeatures.from_sgs(sgs)
        self.mbr = sgs.mbr()
        self.window_index = sgs.window_index
        self.full_size = int(full_size)
        self._sgs = sgs
        self._store = None
        self._nbytes = sgs_bytes(sgs)

    @classmethod
    def filed(
        cls,
        store,
        pattern_id: int,
        window_index: int,
        full_size: int,
        features: ClusterFeatures,
        mbr: MBR,
        nbytes: int,
    ) -> "ArchivedPattern":
        """The record of a pattern ``store`` holds (no summary loaded)."""
        record = cls.__new__(cls)
        record.pattern_id = int(pattern_id)
        record.features = features
        record.mbr = mbr
        record.window_index = int(window_index)
        record.full_size = int(full_size)
        record._sgs = None
        record._store = store
        record._nbytes = int(nbytes)
        return record

    @property
    def sgs(self) -> SGS:
        if self._store is None:
            return self._sgs
        return self._store.summary(self.pattern_id)

    def summary_bytes(self) -> int:
        return self._nbytes

    def __repr__(self) -> str:
        return (
            f"ArchivedPattern(id={self.pattern_id}, "
            f"window={self.window_index}, cells={len(self.sgs)})"
        )


class PatternBase:
    """Dual-indexed store of archived patterns.

    ``store`` selects where pattern records live: ``None`` (or
    ``"memory"``) is a fresh in-memory database, a spec string like
    ``"sqlite:history.db"`` opens a file (reloading any patterns it
    already holds; :class:`ValueError` when it is not a readable
    archive), and an already-open
    :class:`~repro.archive.store.SqliteStore` is adopted as-is.
    """

    def __init__(
        self,
        bin_widths: Sequence[float] = DEFAULT_BIN_WIDTHS,
        inverted_levels: Optional[Sequence[int]] = None,
        inverted_factor: int = 3,
        store: Union[None, str, "object"] = None,
    ):
        from repro.archive.store import SqliteStore, open_store

        if store is None or isinstance(store, str):
            self._store = open_store(store)
        elif isinstance(store, SqliteStore):
            self._store = store
        else:
            raise TypeError(
                "store must be None, a spec string, or a SqliteStore"
            )
        self._next_id = 0
        self._locational = RTree()
        self._features = FeatureGridIndex(bin_widths)
        #: Optional third index: the inverted cell-signature index
        #: (posting lists over canonical-origin coarse cells), kept in
        #: lock-step with the archive so coarse screening never walks a
        #: per-pattern ladder (see :mod:`repro.retrieval.inverted`).
        self._inverted = None
        #: Weakly-held removal listeners (matching engines drop their
        #: cached ladders through this when maintenance evicts).
        self._removal_listeners: List[weakref.ref] = []
        # Reopen path: a pre-populated store (a reopened file, a
        # loaded dump) rebuilds the query-time indices from stored
        # metadata alone — no SGS blob is parsed here.
        for pattern in self._store.all():
            self._locational.insert(pattern.mbr, pattern)
            self._features.insert(pattern.features.as_tuple(), pattern)
            self._next_id = max(self._next_id, pattern.pattern_id + 1)
        loaded = self._store.load_inverted()
        if loaded is not None and len(loaded) == len(self._store):
            self._inverted = loaded
        if inverted_levels:
            wanted = {int(level) for level in inverted_levels}
            if (
                self._inverted is None
                or not wanted.issubset(self._inverted.levels)
                or self._inverted.factor != int(inverted_factor)
            ):
                self.enable_inverted(inverted_levels, inverted_factor)

    @property
    def store(self):
        """The pattern-record store behind this base."""
        return self._store

    def store_info(self) -> dict:
        """JSON-able description of the backing store (for ``/stats``)."""
        return self._store.describe()

    def add(self, sgs: SGS, full_size: int) -> ArchivedPattern:
        """Archive one summarized cluster; returns its stored form."""
        pattern = ArchivedPattern(self._next_id, sgs, full_size)
        return self.restore(pattern)

    def restore(self, pattern: ArchivedPattern) -> ArchivedPattern:
        """Register a pattern under its own id; returns its record.

        The public seam partitioning (and any cross-base migration tool)
        goes through instead of poking the internal dicts and indices:
        the pattern keeps its ``pattern_id``, both feature indices are
        updated, and the id allocator advances past it so later
        :meth:`add` calls never collide.

        The registration is exception-safe end to end: if any index
        rejects the pattern (e.g. NaN features) every structure touched
        so far is unwound, so a failed restore leaves the base exactly
        as it was. The store's commit — on disk, the point a crash can
        no longer lose the pattern — happens last, only after every
        index accepted it.
        """
        from repro.archive.store import feature_bins_for

        stored = self._store.register(pattern)
        try:
            self._locational.insert(stored.mbr, stored)
        except BaseException:
            self._store.forget(stored.pattern_id)
            raise
        try:
            self._features.insert(stored.features.as_tuple(), stored)
        except BaseException:
            self._locational.delete(stored.mbr, stored)
            self._store.forget(stored.pattern_id)
            raise
        signatures = None
        inverted_config = None
        if self._inverted is not None:
            try:
                self._inverted.add(stored.pattern_id, pattern.sgs)
            except BaseException:
                self._features.remove(stored.features.as_tuple(), stored)
                self._locational.delete(stored.mbr, stored)
                self._store.forget(stored.pattern_id)
                raise
            signatures = {
                level: self._inverted.signature(
                    stored.pattern_id, level
                ).cells
                for level in self._inverted.levels
            }
            inverted_config = (
                self._inverted.levels,
                self._inverted.factor,
                pattern.sgs.dimensions,
            )
        try:
            self._store.commit(
                stored,
                bins=feature_bins_for(
                    stored.features.as_tuple(), self._features.bin_widths
                ),
                signatures=signatures,
                inverted_config=inverted_config,
            )
        except BaseException:
            if self._inverted is not None:
                self._inverted.remove(stored.pattern_id)
            self._features.remove(stored.features.as_tuple(), stored)
            self._locational.delete(stored.mbr, stored)
            self._store.forget(stored.pattern_id)
            raise
        self._next_id = max(self._next_id, stored.pattern_id + 1)
        return stored

    def remove(self, pattern_id: int) -> bool:
        pattern = self._store.get(pattern_id)
        if pattern is None:
            return False
        # Durable removal first: if the store rejects it, the in-memory
        # indices are untouched and the base stays consistent.
        if not self._store.delete(pattern_id):
            return False
        self._locational.delete(pattern.mbr, pattern)
        self._features.remove(pattern.features.as_tuple(), pattern)
        if self._inverted is not None:
            self._inverted.remove(pattern_id)
        self._notify_removed(pattern_id)
        return True

    def get(self, pattern_id: int) -> Optional[ArchivedPattern]:
        return self._store.get(pattern_id)

    def overlapping(self, mbr: MBR) -> List[ArchivedPattern]:
        """Locational-index lookup: patterns whose MBR intersects."""
        return self._locational.search(mbr)

    def in_feature_ranges(
        self, lows: Sequence[float], highs: Sequence[float]
    ) -> List[ArchivedPattern]:
        """Non-locational-index lookup over the 4 feature ranges."""
        return self._features.range_query(lows, highs)

    def all_patterns(self) -> Iterator[ArchivedPattern]:
        return self._store.all()

    def feature_index(self) -> FeatureGridIndex:
        """The non-locational feature-grid index (read-only use: query
        planners consult its extents and telemetry)."""
        return self._features

    # ------------------------------------------------------------------
    # The inverted cell-signature index
    # ------------------------------------------------------------------

    def enable_inverted(
        self, levels: Sequence[int], factor: int = 3
    ):
        """Attach (or rebuild) the inverted cell-signature index.

        Signatures for every already-archived pattern are built
        immediately — the "rebuild on legacy load" path — and from then
        on maintained incrementally by :meth:`restore` / :meth:`remove`.
        A durable store persists the rebuilt posting lists. Returns the
        index.
        """
        from repro.retrieval.inverted import InvertedCellIndex

        index = InvertedCellIndex(levels, factor)
        for pattern in self._store.all():
            index.add(pattern.pattern_id, pattern.sgs)
        self._inverted = index
        self._store.replace_postings(index)
        return index

    def attach_inverted(self, index) -> None:
        """Adopt a prebuilt inverted index (the partitioning seam: a
        shard takes its patterns' signatures without re-coarsening).
        The index must already cover exactly the archived patterns."""
        missing = [
            pattern_id
            for pattern_id in (p.pattern_id for p in self._store.all())
            if pattern_id not in index
        ]
        if missing or len(index) != len(self._store):
            raise ValueError(
                "inverted index does not match the archive contents"
            )
        self._inverted = index
        self._store.replace_postings(index)

    def inverted_index(self):
        """The inverted cell-signature index, or None when disabled."""
        return self._inverted

    # ------------------------------------------------------------------
    # Removal listeners
    # ------------------------------------------------------------------

    def subscribe(self, listener) -> None:
        """Register an object to be told about removals.

        ``listener.pattern_removed(pattern_id)`` is called whenever a
        pattern leaves the base — eviction by the retention manager,
        compaction, explicit removal. Listeners are held weakly, so a
        discarded matching engine never pins the base (nor vice versa).
        """
        # The dedup scan doubles as the pruning pass for dead refs —
        # a grow-only archive never removes, so without this every
        # transient engine would leave a weakref behind forever.
        live: List[weakref.ref] = []
        known = False
        for existing in self._removal_listeners:
            target = existing()
            if target is None:
                continue
            if target is listener:
                known = True
            live.append(existing)
        if not known:
            live.append(weakref.ref(listener))
        self._removal_listeners = live

    def _notify_removed(self, pattern_id: int) -> None:
        if not self._removal_listeners:
            return
        live: List[weakref.ref] = []
        for ref in self._removal_listeners:
            listener = ref()
            if listener is None:
                continue
            listener.pattern_removed(pattern_id)
            live.append(ref)
        self._removal_listeners = live

    def summary_bytes(self) -> int:
        """Total serialized size of all archived summaries."""
        return self._store.summary_bytes()

    def close(self) -> None:
        """Release the backing store's connection."""
        self._store.close()

    def __enter__(self) -> "PatternBase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, pattern_id: int) -> bool:
        return pattern_id in self._store
