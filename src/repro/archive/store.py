"""Pattern-record storage backends: the ``PatternStore`` seam.

The Pattern Base is the paper's long-term "Stream History"; this module
decides *where its pattern records live*. :class:`PatternBase` keeps its
query-time structures — the R-tree, the feature grid, the inverted
cell-signature index — in memory either way; the store behind them is
pluggable:

* :class:`MemoryStore` (default) — the original in-process dict. Every
  archived pattern is a fully materialized
  :class:`~repro.archive.pattern_base.ArchivedPattern`; durability is
  whatever :func:`~repro.archive.persistence.dump_pattern_base` the
  caller remembers to run. Zero behavior change from the pre-seam code.
* :class:`SqliteStore` — a disk-backed SQLite database in WAL mode
  (``synchronous=NORMAL``, the Paper-Scanner recipe): patterns are
  serialized SGS blobs plus their index keys (features, MBR,
  ``full_size``, ``ladder_hint``) as columns, with materialized
  feature-grid bin rows and inverted posting lists as tables. Each
  archival commits **one transaction before the caller is acked**, so a
  crash never loses an acknowledged pattern, and WAL keeps readers
  concurrent with archival writes. Reopening the store rebuilds the
  in-memory indexes from the metadata columns alone — no SGS blob is
  parsed until matching actually needs its cells.

Lazy hydration: a SQLite-backed base holds one light
:class:`StoredPattern` stub per pattern (id, features, MBR, sizes —
~100 bytes) whose ``sgs`` attribute loads the blob on first touch
through a bounded LRU of materialized summaries. ``PatternBase.get`` /
``all_patterns`` therefore stream from disk past the cache, which is
what lets an archive grow past RAM.

Store specs (threaded through config, the framework, and the CLI as
``--store``)::

    memory                  the default in-process dict
    sqlite:PATH             disk-backed store at PATH
    sqlite:PATH?cache=N     ... with an N-pattern hydration LRU
"""

from __future__ import annotations

import json
import math
import sqlite3
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.archive.pattern_base import ArchivedPattern
from repro.core.features import ClusterFeatures
from repro.core.serialize import sgs_from_bytes, sgs_to_bytes
from repro.core.sgs import SGS
from repro.eval.memory import sgs_bytes
from repro.geometry.mbr import MBR

__all__ = [
    "MemoryStore",
    "PatternStore",
    "SqliteStore",
    "StoredPattern",
    "STORE_BACKENDS",
    "open_store",
    "parse_store_spec",
]

#: The supported store backends (spec prefixes).
STORE_BACKENDS = ("memory", "sqlite")

#: Default size of the SQLite store's hydration LRU (materialized SGS
#: summaries kept in memory; everything else streams from disk).
DEFAULT_CACHE_PATTERNS = 128

#: How long a statement waits on another connection's write lock before
#: failing with ``database is locked``. A coarse match writes ladder
#: hints from inside a read query, so even readers can meet the lock.
BUSY_TIMEOUT_MS = 5000

Coord = Tuple[int, ...]
#: ``{level: iterable of signature cells}`` — one pattern's inverted
#: cell-signature contribution, as persisted into the postings table.
Signatures = Dict[int, Iterable[Coord]]
#: ``(levels, factor, dimensions)`` of the inverted index the
#: signatures belong to.
InvertedConfig = Tuple[Sequence[int], int, int]


def parse_store_spec(spec: str) -> Tuple[str, Optional[str], Dict[str, int]]:
    """Split a store spec into ``(backend, path, options)``.

    Raises :class:`ValueError` for unknown backends, missing paths, or
    malformed options — the same validation `config` runs up front.
    """
    if not isinstance(spec, str) or not spec:
        raise ValueError("store spec must be a non-empty string")
    if spec == "memory":
        return ("memory", None, {})
    backend, sep, rest = spec.partition(":")
    if backend != "sqlite" or not sep:
        raise ValueError(
            f"unknown store spec {spec!r}; expected 'memory' or "
            f"'sqlite:PATH[?cache=N]'"
        )
    path, _, query = rest.partition("?")
    if not path:
        raise ValueError("sqlite store spec needs a path: 'sqlite:PATH'")
    options: Dict[str, int] = {}
    if query:
        for part in query.split("&"):
            name, eq, value = part.partition("=")
            if name != "cache" or not eq:
                raise ValueError(
                    f"unknown store option {part!r} in {spec!r} "
                    f"(supported: cache=N)"
                )
            try:
                options["cache"] = int(value)
            except ValueError:
                raise ValueError(
                    f"store cache size must be an integer, got {value!r}"
                ) from None
            if options["cache"] < 1:
                raise ValueError("store cache size must be positive")
    return ("sqlite", path, options)


def open_store(spec: Optional[str]) -> "PatternStore":
    """Open the store a spec names (``None``/"memory" → a fresh
    :class:`MemoryStore`; ``sqlite:PATH`` opens or creates the file)."""
    if spec is None:
        return MemoryStore()
    backend, path, options = parse_store_spec(spec)
    if backend == "memory":
        return MemoryStore()
    return SqliteStore(
        path, cache_patterns=options.get("cache", DEFAULT_CACHE_PATTERNS)
    )


class PatternStore:
    """Where a Pattern Base's pattern records live.

    The write path is two-phase so :meth:`~repro.archive.pattern_base.
    PatternBase.restore` stays exception-safe end to end:
    :meth:`register` materializes the canonical stored object (and
    stages its serialized form) without making anything visible;
    :meth:`commit` publishes it — for a durable backend, in a single
    transaction that also carries the pattern's feature-grid bin row
    and inverted posting rows. :meth:`forget` abandons a registration
    when an in-memory index rejected the pattern in between.
    """

    backend: str = "?"
    #: Whether commits survive the process (drives write-through and
    #: CLI/service reporting).
    durable: bool = False

    # -- write path ----------------------------------------------------

    def register(self, pattern: ArchivedPattern) -> ArchivedPattern:
        raise NotImplementedError

    def commit(
        self,
        stored: ArchivedPattern,
        bins: Optional[Coord] = None,
        signatures: Optional[Signatures] = None,
        inverted_config: Optional[InvertedConfig] = None,
    ) -> None:
        raise NotImplementedError

    def forget(self, pattern_id: int) -> None:
        raise NotImplementedError

    def put(
        self,
        pattern: ArchivedPattern,
        bins: Optional[Coord] = None,
        signatures: Optional[Signatures] = None,
        inverted_config: Optional[InvertedConfig] = None,
    ) -> ArchivedPattern:
        """One-call register+commit (the sharded write-through path)."""
        stored = self.register(pattern)
        try:
            self.commit(
                stored,
                bins=bins,
                signatures=signatures,
                inverted_config=inverted_config,
            )
        except BaseException:
            self.forget(stored.pattern_id)
            raise
        return stored

    def delete(self, pattern_id: int) -> bool:
        raise NotImplementedError

    # -- read path -----------------------------------------------------

    def get(self, pattern_id: int) -> Optional[ArchivedPattern]:
        raise NotImplementedError

    def all(self) -> Iterator[ArchivedPattern]:
        raise NotImplementedError

    def summary_bytes(self) -> int:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __contains__(self, pattern_id: int) -> bool:
        return self.get(pattern_id) is not None

    # -- inverted-index persistence ------------------------------------

    def load_inverted(self):
        """The persisted inverted cell-signature index, rebuilt from
        the postings table without any coarsening arithmetic (``None``
        when the store carries no postings)."""
        return None

    def replace_postings(self, index) -> None:
        """Rewrite the postings table to mirror ``index`` (the
        enable/attach seam; ``None`` clears it)."""

    # -- bulk loads ----------------------------------------------------

    def begin_bulk(self) -> None:
        """Start an all-or-nothing load (e.g. restoring a format-v3
        dump): commits inside are staged, not published."""

    def end_bulk(self, success: bool = True) -> None:
        """Finish a bulk load: publish everything, or roll the store
        back to its pre-bulk state so a torn input leaves no partial
        archive behind."""

    # -- lifecycle / telemetry -----------------------------------------

    def note_ladder_hint(self, pattern_id: int, hint: int) -> None:
        """Persist an updated cache-warmth byte (advisory; memory
        stores keep it on the pattern object itself)."""

    def describe(self) -> Dict[str, object]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self) -> "PatternStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MemoryStore(PatternStore):
    """The original in-process dict of materialized patterns."""

    backend = "memory"
    durable = False

    def __init__(self):
        self._patterns: Dict[int, ArchivedPattern] = {}

    def register(self, pattern: ArchivedPattern) -> ArchivedPattern:
        if pattern.pattern_id in self._patterns:
            raise ValueError(
                f"pattern id {pattern.pattern_id} already archived"
            )
        return pattern

    def commit(
        self,
        stored: ArchivedPattern,
        bins: Optional[Coord] = None,
        signatures: Optional[Signatures] = None,
        inverted_config: Optional[InvertedConfig] = None,
    ) -> None:
        self._patterns[stored.pattern_id] = stored

    def forget(self, pattern_id: int) -> None:
        self._patterns.pop(pattern_id, None)

    def delete(self, pattern_id: int) -> bool:
        return self._patterns.pop(pattern_id, None) is not None

    def get(self, pattern_id: int) -> Optional[ArchivedPattern]:
        return self._patterns.get(pattern_id)

    def all(self) -> Iterator[ArchivedPattern]:
        return iter(self._patterns.values())

    def summary_bytes(self) -> int:
        return sum(p.summary_bytes() for p in self._patterns.values())

    def __len__(self) -> int:
        return len(self._patterns)

    def __contains__(self, pattern_id: int) -> bool:
        return pattern_id in self._patterns

    def describe(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "durable": self.durable,
            "patterns": len(self._patterns),
        }


class StoredPattern(ArchivedPattern):
    """A disk-resident pattern: index keys in memory, SGS on demand.

    Shares :class:`ArchivedPattern`'s surface — the engines, indices,
    and persistence never see the difference — but holds no summary:
    ``sgs`` hydrates from the owning store's LRU on access, and
    ``ladder_hint`` writes through so cache warmth survives reopen.
    """

    __slots__ = ("_store", "_hint", "_nbytes")

    def __init__(
        self,
        store: "SqliteStore",
        pattern_id: int,
        window_index: int,
        full_size: int,
        ladder_hint: int,
        features: ClusterFeatures,
        mbr: MBR,
        nbytes: int,
    ):
        # Deliberately not calling ArchivedPattern.__init__: it derives
        # features/MBR from a materialized SGS this stub exists to
        # avoid loading.
        self.pattern_id = int(pattern_id)
        self.features = features
        self.mbr = mbr
        self.window_index = int(window_index)
        self.full_size = int(full_size)
        self._store = store
        self._hint = int(ladder_hint)
        self._nbytes = int(nbytes)

    @property
    def sgs(self) -> SGS:
        return self._store._sgs_of(self.pattern_id)

    @property
    def ladder_hint(self) -> int:
        return self._hint

    @ladder_hint.setter
    def ladder_hint(self, value: int) -> None:
        value = int(value)
        if value == self._hint:
            return
        self._hint = value
        self._store.note_ladder_hint(self.pattern_id, value)

    def summary_bytes(self) -> int:
        return self._nbytes


_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS patterns (
    pattern_id       INTEGER PRIMARY KEY,
    seq              INTEGER NOT NULL,
    window_index     INTEGER NOT NULL,
    full_size        INTEGER NOT NULL,
    ladder_hint      INTEGER NOT NULL,
    volume           REAL NOT NULL,
    core_count       REAL NOT NULL,
    avg_density      REAL NOT NULL,
    avg_connectivity REAL NOT NULL,
    mbr_lows         TEXT NOT NULL,
    mbr_highs        TEXT NOT NULL,
    summary_bytes    INTEGER NOT NULL,
    blob             BLOB NOT NULL
);
CREATE INDEX IF NOT EXISTS patterns_seq ON patterns(seq);
CREATE TABLE IF NOT EXISTS feature_bins (
    pattern_id INTEGER PRIMARY KEY,
    b0 INTEGER NOT NULL,
    b1 INTEGER NOT NULL,
    b2 INTEGER NOT NULL,
    b3 INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS feature_bins_key
    ON feature_bins(b0, b1, b2, b3);
CREATE TABLE IF NOT EXISTS postings (
    level      INTEGER NOT NULL,
    cell       TEXT NOT NULL,
    pattern_id INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS postings_key ON postings(level, cell);
CREATE INDEX IF NOT EXISTS postings_pattern ON postings(pattern_id);
"""


class SqliteStore(PatternStore):
    """Disk-backed pattern storage: SQLite, WAL, incremental commits.

    Pragmas follow the Paper-Scanner template: ``journal_mode=WAL`` so
    readers never block on archival writes, ``synchronous=NORMAL`` so a
    commit survives a process crash (an OS/power failure can lose the
    newest WAL frames but never corrupts the database — the standard
    WAL trade), and a fixed ``busy_timeout`` so a second process holding
    the write lock delays a statement instead of failing it. One
    connection serves all threads behind a lock; the serving layer's
    own request lock already serializes mutation.
    """

    backend = "sqlite"
    durable = True

    def __init__(
        self,
        path: Union[str, Path],
        cache_patterns: int = DEFAULT_CACHE_PATTERNS,
    ):
        self.path = str(path)
        self.cache_patterns = max(1, int(cache_patterns))
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            self.path, isolation_level=None, check_same_thread=False
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        self._conn.executescript(_SCHEMA)
        self._stubs: Dict[int, StoredPattern] = {}
        self._cache: "OrderedDict[int, SGS]" = OrderedDict()
        #: Registered-but-uncommitted rows: ``id -> (row, blob, sgs)``.
        self._pending: Dict[int, Tuple[tuple, bytes, SGS]] = {}
        self._bulk_depth = 0
        self._seq = 0
        self.stats = {"hydrations": 0, "cache_hits": 0, "evictions": 0}
        self._load_stubs()

    # -- open ----------------------------------------------------------

    def _load_stubs(self) -> None:
        rows = self._conn.execute(
            "SELECT pattern_id, seq, window_index, full_size, ladder_hint,"
            " volume, core_count, avg_density, avg_connectivity,"
            " mbr_lows, mbr_highs, summary_bytes"
            " FROM patterns ORDER BY seq"
        ).fetchall()
        for (
            pattern_id, seq, window_index, full_size, ladder_hint,
            volume, core_count, avg_density, avg_connectivity,
            mbr_lows, mbr_highs, nbytes,
        ) in rows:
            features = ClusterFeatures(
                volume=volume,
                core_count=core_count,
                avg_density=avg_density,
                avg_connectivity=avg_connectivity,
            )
            mbr = MBR(json.loads(mbr_lows), json.loads(mbr_highs))
            self._stubs[pattern_id] = StoredPattern(
                self, pattern_id, window_index, full_size, ladder_hint,
                features, mbr, nbytes,
            )
            self._seq = max(self._seq, seq + 1)

    # -- write path ----------------------------------------------------

    def register(self, pattern: ArchivedPattern) -> ArchivedPattern:
        with self._lock:
            if pattern.pattern_id in self._stubs:
                raise ValueError(
                    f"pattern id {pattern.pattern_id} already archived"
                )
            sgs = pattern.sgs
            blob = sgs_to_bytes(sgs)
            nbytes = sgs_bytes(sgs)
            stub = StoredPattern(
                self,
                pattern.pattern_id,
                pattern.window_index,
                pattern.full_size,
                pattern.ladder_hint,
                pattern.features,
                pattern.mbr,
                nbytes,
            )
            row = (
                stub.pattern_id,
                self._seq,
                stub.window_index,
                stub.full_size,
                int(pattern.ladder_hint),
                stub.features.volume,
                stub.features.core_count,
                stub.features.avg_density,
                stub.features.avg_connectivity,
                json.dumps(list(stub.mbr.lows)),
                json.dumps(list(stub.mbr.highs)),
                nbytes,
            )
            self._pending[stub.pattern_id] = (row, blob, sgs)
            return stub

    def commit(
        self,
        stored: ArchivedPattern,
        bins: Optional[Coord] = None,
        signatures: Optional[Signatures] = None,
        inverted_config: Optional[InvertedConfig] = None,
    ) -> None:
        with self._lock:
            row, blob, sgs = self._pending[stored.pattern_id]
            own_txn = self._bulk_depth == 0
            if own_txn:
                self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "INSERT INTO patterns (pattern_id, seq, window_index,"
                    " full_size, ladder_hint, volume, core_count,"
                    " avg_density, avg_connectivity, mbr_lows, mbr_highs,"
                    " summary_bytes, blob)"
                    " VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?)",
                    row + (blob,),
                )
                if bins is not None:
                    self._conn.execute(
                        "INSERT INTO feature_bins (pattern_id, b0, b1, b2,"
                        " b3) VALUES (?,?,?,?,?)",
                        (stored.pattern_id, *bins),
                    )
                if signatures is not None:
                    if inverted_config is not None:
                        self._write_inverted_meta(*inverted_config)
                    self._insert_postings(stored.pattern_id, signatures)
                if own_txn:
                    self._conn.execute("COMMIT")
            except BaseException:
                if own_txn:
                    self._conn.execute("ROLLBACK")
                raise
            del self._pending[stored.pattern_id]
            self._seq += 1
            self._stubs[stored.pattern_id] = stored  # type: ignore[assignment]
            self._cache_put(stored.pattern_id, sgs)

    def forget(self, pattern_id: int) -> None:
        with self._lock:
            self._pending.pop(pattern_id, None)

    def delete(self, pattern_id: int) -> bool:
        with self._lock:
            if pattern_id not in self._stubs:
                return False
            own_txn = self._bulk_depth == 0
            if own_txn:
                self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "DELETE FROM postings WHERE pattern_id = ?",
                    (pattern_id,),
                )
                self._conn.execute(
                    "DELETE FROM feature_bins WHERE pattern_id = ?",
                    (pattern_id,),
                )
                self._conn.execute(
                    "DELETE FROM patterns WHERE pattern_id = ?",
                    (pattern_id,),
                )
                if own_txn:
                    self._conn.execute("COMMIT")
            except BaseException:
                if own_txn:
                    self._conn.execute("ROLLBACK")
                raise
            del self._stubs[pattern_id]
            self._cache.pop(pattern_id, None)
            return True

    def note_ladder_hint(self, pattern_id: int, hint: int) -> None:
        with self._lock:
            self._conn.execute(
                "UPDATE patterns SET ladder_hint = ? WHERE pattern_id = ?",
                (int(hint), pattern_id),
            )

    # -- read path -----------------------------------------------------

    def get(self, pattern_id: int) -> Optional[ArchivedPattern]:
        return self._stubs.get(pattern_id)

    def all(self) -> Iterator[ArchivedPattern]:
        return iter(list(self._stubs.values()))

    def summary_bytes(self) -> int:
        return sum(stub.summary_bytes() for stub in self._stubs.values())

    def __len__(self) -> int:
        return len(self._stubs)

    def __contains__(self, pattern_id: int) -> bool:
        return pattern_id in self._stubs

    def _sgs_of(self, pattern_id: int) -> SGS:
        with self._lock:
            cached = self._cache.get(pattern_id)
            if cached is not None:
                self._cache.move_to_end(pattern_id)
                self.stats["cache_hits"] += 1
                return cached
            pending = self._pending.get(pattern_id)
            if pending is not None:
                return pending[2]
            row = self._conn.execute(
                "SELECT blob FROM patterns WHERE pattern_id = ?",
                (pattern_id,),
            ).fetchone()
            if row is None:
                raise KeyError(f"pattern {pattern_id} not in store")
            sgs = sgs_from_bytes(row[0])
            self.stats["hydrations"] += 1
            self._cache_put(pattern_id, sgs)
            return sgs

    def _cache_put(self, pattern_id: int, sgs: SGS) -> None:
        self._cache[pattern_id] = sgs
        self._cache.move_to_end(pattern_id)
        while len(self._cache) > self.cache_patterns:
            self._cache.popitem(last=False)
            self.stats["evictions"] += 1

    # -- inverted-index persistence ------------------------------------

    def _write_inverted_meta(
        self, levels: Sequence[int], factor: int, dimensions: int
    ) -> None:
        wanted = {
            "inverted_levels": json.dumps(sorted(int(lv) for lv in levels)),
            "inverted_factor": str(int(factor)),
            "inverted_dims": str(int(dimensions)),
        }
        for key, value in wanted.items():
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?)"
                " ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                (key, value),
            )

    def _insert_postings(
        self, pattern_id: int, signatures: Signatures
    ) -> None:
        for level in sorted(signatures):
            cells = sorted(tuple(cell) for cell in signatures[level])
            self._conn.executemany(
                "INSERT INTO postings (level, cell, pattern_id)"
                " VALUES (?,?,?)",
                [
                    (int(level), json.dumps(list(cell)), pattern_id)
                    for cell in cells
                ],
            )

    def _meta(self, key: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row[0]

    def inverted_config(self) -> Optional[InvertedConfig]:
        """The persisted inverted-index configuration, or ``None``."""
        with self._lock:
            levels = self._meta("inverted_levels")
            if levels is None:
                return None
            return (
                tuple(json.loads(levels)),
                int(self._meta("inverted_factor")),
                int(self._meta("inverted_dims")),
            )

    def load_inverted(self):
        from repro.retrieval.inverted import InvertedCellIndex

        with self._lock:
            config = self.inverted_config()
            if config is None:
                return None
            levels, factor, dims = config
            index = InvertedCellIndex(levels, factor)
            cells_by_pattern: Dict[int, Dict[int, List[Coord]]] = {}
            for level, cell, pattern_id in self._conn.execute(
                "SELECT level, cell, pattern_id FROM postings"
            ):
                per_level = cells_by_pattern.setdefault(pattern_id, {})
                per_level.setdefault(level, []).append(
                    tuple(json.loads(cell))
                )
            for pattern_id in sorted(self._stubs):
                per_level = cells_by_pattern.get(pattern_id)
                if per_level is None:
                    # Postings don't cover the archive (e.g. patterns
                    # written through a path that maintained no index):
                    # report nothing rather than a partial index.
                    return None
                index.restore_signatures(
                    pattern_id,
                    {level: per_level.get(level, []) for level in levels},
                    dims,
                )
            return index

    def replace_postings(self, index) -> None:
        with self._lock:
            own_txn = self._bulk_depth == 0
            if own_txn:
                self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute("DELETE FROM postings")
                if index is None:
                    self._conn.execute(
                        "DELETE FROM meta WHERE key IN ('inverted_levels',"
                        " 'inverted_factor', 'inverted_dims')"
                    )
                else:
                    dims = 0
                    for pattern_id in sorted(index.pattern_ids()):
                        signature = index.signature(
                            pattern_id, index.levels[0]
                        )
                        dims = len(signature.histograms) or dims
                        self._insert_postings(
                            pattern_id,
                            {
                                level: index.signature(
                                    pattern_id, level
                                ).cells
                                for level in index.levels
                            },
                        )
                    self._write_inverted_meta(
                        index.levels, index.factor, dims
                    )
                if own_txn:
                    self._conn.execute("COMMIT")
            except BaseException:
                if own_txn:
                    self._conn.execute("ROLLBACK")
                raise

    # -- bulk loads ----------------------------------------------------

    def begin_bulk(self) -> None:
        with self._lock:
            if self._bulk_depth == 0:
                self._conn.execute("BEGIN IMMEDIATE")
            self._bulk_depth += 1

    def end_bulk(self, success: bool = True) -> None:
        with self._lock:
            if self._bulk_depth <= 0:
                return
            self._bulk_depth -= 1
            if self._bulk_depth > 0:
                return
            if success:
                self._conn.execute("COMMIT")
                return
            self._conn.execute("ROLLBACK")
            # Rolled-back rows may already be mirrored in memory:
            # rebuild the stub table from what the database actually
            # holds, so a torn load leaves no partial archive.
            self._stubs.clear()
            self._cache.clear()
            self._pending.clear()
            self._seq = 0
            self._load_stubs()

    # -- lifecycle / telemetry -----------------------------------------

    def describe(self) -> Dict[str, object]:
        with self._lock:
            config = self.inverted_config()
            return {
                "backend": self.backend,
                "durable": self.durable,
                "path": self.path,
                "patterns": len(self._stubs),
                "cache_patterns": self.cache_patterns,
                "cached": len(self._cache),
                "hydrations": self.stats["hydrations"],
                "cache_hits": self.stats["cache_hits"],
                "evictions": self.stats["evictions"],
                "inverted_levels": (
                    list(config[0]) if config is not None else None
                ),
            }

    def close(self) -> None:
        with self._lock:
            self._conn.close()


def feature_bins_for(
    features: Sequence[float], bin_widths: Sequence[float]
) -> Coord:
    """The feature-grid bin key of a feature vector (the same floored
    division :class:`~repro.index.feature_grid.FeatureGridIndex` bins
    with — materialized per pattern in the store's ``feature_bins``
    table)."""
    return tuple(
        int(math.floor(value / width))
        for value, width in zip(features, bin_widths)
    )
