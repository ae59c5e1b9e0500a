"""Where a Pattern Base's records live: one SQLite database.

The Pattern Base is the paper's long-term "Stream History"; this module
decides *where its pattern records live*. :class:`PatternBase` keeps its
query-time structures — the R-tree, the feature grid, the inverted
cell-signature index — in memory; the records behind them sit in one
SQLite schema, :class:`SqliteStore`. Patterns are serialized SGS blobs
plus their index keys (features, MBR, ``full_size``) as columns, with
materialized feature-grid bin rows and inverted posting lists as
tables, and each archival commits **one transaction** that carries all
of them. Reopening a database rebuilds the in-memory indexes from the
metadata columns alone — no SGS blob is parsed until matching actually
needs its cells.

The database is in memory or on disk:

* ``memory`` (the default) — an in-memory database, gone with the
  process. Its summary cache never evicts: the summaries sit in RAM
  either way.
* ``sqlite:PATH`` — a file in WAL mode (``synchronous=NORMAL``, the
  Paper-Scanner recipe). Each archival commits **before the caller is
  acked**, so a crash never loses an acknowledged pattern, and WAL
  keeps readers concurrent with archival writes. Summaries hydrate
  through a bounded LRU, which is what lets an archive grow past RAM.

Lazy hydration: a base holds one light
:class:`~repro.archive.pattern_base.ArchivedPattern` record per pattern
(id, features, MBR, sizes — ~100 bytes) whose ``sgs`` loads the blob on
first touch through the store's cache.

A dump (:func:`~repro.archive.persistence.dump_pattern_base`) is a
backup of the database into a file: ``sqlite:FILE`` serves it directly,
and :func:`~repro.archive.persistence.load_pattern_base` copies it into
memory. The archive holds patterns, never engine state: matching only
reads it, so a match never takes the write lock and never waits on a
writer.

Store specs (threaded through config, the framework, and the CLI as
``--store``)::

    memory                  in-memory database (the default)
    sqlite:PATH             on-disk database at PATH
    sqlite:PATH?cache=N     ... with an N-pattern hydration LRU
"""

from __future__ import annotations

import json
import math
import os
import sqlite3
import threading
from collections import OrderedDict
from contextlib import closing, contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.archive.pattern_base import ArchivedPattern
from repro.core.features import ClusterFeatures
from repro.core.serialize import sgs_from_bytes, sgs_to_bytes
from repro.core.sgs import SGS
from repro.geometry.mbr import MBR

__all__ = ["SqliteStore", "open_store", "parse_store_spec"]

#: SQLite's name for a private in-memory database: the ``memory`` store.
MEMORY = ":memory:"

#: Default size of the on-disk store's hydration LRU (materialized SGS
#: summaries kept in memory; everything else streams from disk).
DEFAULT_CACHE_PATTERNS = 128

#: How long a write (archival, removal, the one-time schema upgrade at
#: open) waits on another connection's write lock before failing with
#: ``database is locked``. Reads never take that lock.
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
    ``sqlite::memory:`` is refused: the in-memory database is spelled
    ``memory``.
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
    if path == MEMORY:
        raise ValueError(
            f"{spec!r} names no file; the in-memory store is 'memory'"
        )
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


def open_store(spec: Optional[str]) -> "SqliteStore":
    """Open the store a spec names (``None``/"memory" → a fresh
    in-memory database; ``sqlite:PATH`` opens or creates the file)."""
    backend, path, options = parse_store_spec(spec or "memory")
    if backend == "memory":
        return SqliteStore(MEMORY)
    return SqliteStore(
        path, cache_patterns=options.get("cache", DEFAULT_CACHE_PATTERNS)
    )


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


class SqliteStore:
    """Pattern records in one SQLite database, incremental commits.

    Pragmas follow the Paper-Scanner template: ``journal_mode=WAL`` so
    readers never block on archival writes, ``synchronous=NORMAL`` so a
    commit survives a process crash (an OS/power failure can lose the
    newest WAL frames but never corrupts the database — the standard
    WAL trade), and a fixed ``busy_timeout`` so a second process holding
    the write lock delays a write instead of failing it. One
    connection serves all threads behind a lock; the serving layer's
    own request lock already serializes mutation.

    ``path`` :data:`MEMORY` is the in-memory database, whose cache
    keeps every summary; ``source`` first fills it with a copy of an
    archive file. A file that is not a readable archive — not SQLite,
    or truncated — raises :class:`ValueError` naming it, with the
    connection closed.

    The write path is two-phase so :meth:`~repro.archive.pattern_base.
    PatternBase.restore` stays exception-safe end to end:
    :meth:`register` makes the pattern's record (and stages its
    serialized row) without making anything visible; :meth:`commit`
    publishes it in a single transaction that also carries the
    pattern's feature-grid bin row and inverted posting rows.
    :meth:`forget` abandons a registration when an in-memory index
    rejected the pattern in between.
    """

    def __init__(
        self,
        path: Union[str, Path],
        cache_patterns: int = DEFAULT_CACHE_PATTERNS,
        source: Optional[Union[str, Path]] = None,
    ):
        self.path = str(path)
        self.backend = "memory" if self.path == MEMORY else "sqlite"
        #: Whether commits survive the process (drives write-through and
        #: CLI/service reporting).
        self.durable = self.backend == "sqlite"
        #: The hydration LRU's size; ``None`` (in memory) never evicts.
        self.cache_patterns = (
            max(1, int(cache_patterns)) if self.durable else None
        )
        self._lock = threading.RLock()
        self._records: Dict[int, ArchivedPattern] = {}
        self._cache: "OrderedDict[int, SGS]" = OrderedDict()
        #: Registered-but-uncommitted rows: ``id -> (row, blob, sgs)``.
        self._pending: Dict[int, Tuple[tuple, bytes, SGS]] = {}
        self._seq = 0
        self.stats = {"hydrations": 0, "cache_hits": 0, "evictions": 0}
        self._conn = sqlite3.connect(
            self.path, isolation_level=None, check_same_thread=False
        )
        try:
            if source is not None:
                self._copy_from(source)
            if self.durable and os.path.exists(self.path):
                _page_size(self._conn, self.path)  # before any write
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            self._conn.executescript(_SCHEMA)
            columns = self._conn.execute("PRAGMA table_info(patterns)")
            if "ladder_hint" in {row[1] for row in columns}:
                # Written before matching stopped persisting cache warmth.
                self._conn.execute(
                    "ALTER TABLE patterns DROP COLUMN ladder_hint"
                )
            self._load_records()
        except sqlite3.Error as error:
            self._conn.close()
            raise ValueError(
                f"{source or self.path}: not a readable pattern archive "
                f"({error})"
            ) from None

    # -- open ----------------------------------------------------------

    def _copy_from(self, source: Union[str, Path]) -> None:
        """Back the archive file ``source`` up into this still-empty
        database; the file is opened read-only."""
        uri = Path(source).absolute().as_uri() + "?mode=ro"
        with closing(sqlite3.connect(uri, uri=True)) as origin:
            page_size = _page_size(origin, source)
            self._conn.execute(f"PRAGMA page_size={page_size}")
            origin.backup(self._conn)

    def _load_records(self) -> None:
        rows = self._conn.execute(
            "SELECT pattern_id, seq, window_index, full_size,"
            " volume, core_count, avg_density, avg_connectivity,"
            " mbr_lows, mbr_highs, summary_bytes"
            " FROM patterns ORDER BY seq"
        ).fetchall()
        for (
            pattern_id, seq, window_index, full_size,
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
            self._records[pattern_id] = ArchivedPattern.filed(
                self, pattern_id, window_index, full_size,
                features, mbr, nbytes,
            )
            self._seq = max(self._seq, seq + 1)

    # -- write path ----------------------------------------------------

    @contextmanager
    def _transaction(self):
        """One ``BEGIN IMMEDIATE`` … ``COMMIT``, rolled back on error."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._conn.execute("COMMIT")

    def register(self, pattern: ArchivedPattern) -> ArchivedPattern:
        with self._lock:
            if pattern.pattern_id in self._records:
                raise ValueError(
                    f"pattern id {pattern.pattern_id} already archived"
                )
            sgs = pattern.sgs
            record = ArchivedPattern.filed(
                self,
                pattern.pattern_id,
                pattern.window_index,
                pattern.full_size,
                pattern.features,
                pattern.mbr,
                pattern.summary_bytes(),
            )
            row = (
                record.pattern_id,
                self._seq,
                record.window_index,
                record.full_size,
                record.features.volume,
                record.features.core_count,
                record.features.avg_density,
                record.features.avg_connectivity,
                json.dumps(list(record.mbr.lows)),
                json.dumps(list(record.mbr.highs)),
                record.summary_bytes(),
            )
            self._pending[record.pattern_id] = (row, sgs_to_bytes(sgs), sgs)
            return record

    def commit(
        self,
        stored: ArchivedPattern,
        bins: Optional[Coord] = None,
        signatures: Optional[Signatures] = None,
        inverted_config: Optional[InvertedConfig] = None,
    ) -> None:
        with self._lock:
            row, blob, sgs = self._pending[stored.pattern_id]
            with self._transaction():
                self._conn.execute(
                    "INSERT INTO patterns (pattern_id, seq, window_index,"
                    " full_size, volume, core_count, avg_density,"
                    " avg_connectivity, mbr_lows, mbr_highs, summary_bytes,"
                    " blob) VALUES (?,?,?,?,?,?,?,?,?,?,?,?)",
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
            del self._pending[stored.pattern_id]
            self._seq += 1
            self._records[stored.pattern_id] = stored
            self._cache_put(stored.pattern_id, sgs)

    def forget(self, pattern_id: int) -> None:
        with self._lock:
            self._pending.pop(pattern_id, None)

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
        with self._lock:
            if pattern_id not in self._records:
                return False
            with self._transaction():
                for table in ("postings", "feature_bins", "patterns"):
                    self._conn.execute(
                        f"DELETE FROM {table} WHERE pattern_id = ?",
                        (pattern_id,),
                    )
            del self._records[pattern_id]
            self._cache.pop(pattern_id, None)
            return True

    # -- read path -----------------------------------------------------

    def get(self, pattern_id: int) -> Optional[ArchivedPattern]:
        return self._records.get(pattern_id)

    def all(self) -> Iterator[ArchivedPattern]:
        return iter(list(self._records.values()))

    def summary_bytes(self) -> int:
        return sum(r.summary_bytes() for r in self._records.values())

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, pattern_id: int) -> bool:
        return pattern_id in self._records

    def summary(self, pattern_id: int) -> SGS:
        """A stored pattern's SGS: from the cache, or parsed from its
        blob (a hydration) and cached."""
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
        if self.cache_patterns is None:
            return
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
        """The persisted inverted cell-signature index, rebuilt from
        the postings table without any coarsening arithmetic (``None``
        when the store carries no postings)."""
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
            for pattern_id in sorted(self._records):
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
        """Rewrite the postings table to mirror ``index`` (the
        enable/attach seam; ``None`` clears it)."""
        with self._lock, self._transaction():
            self._conn.execute("DELETE FROM postings")
            if index is None:
                self._conn.execute(
                    "DELETE FROM meta WHERE key IN ('inverted_levels',"
                    " 'inverted_factor', 'inverted_dims')"
                )
                return
            dims = 0
            for pattern_id in sorted(index.pattern_ids()):
                signature = index.signature(pattern_id, index.levels[0])
                dims = len(signature.histograms) or dims
                self._insert_postings(
                    pattern_id,
                    {
                        level: index.signature(pattern_id, level).cells
                        for level in index.levels
                    },
                )
            self._write_inverted_meta(index.levels, index.factor, dims)

    # -- dumps, lifecycle, telemetry -----------------------------------

    def backup(self, path: Union[str, Path]) -> None:
        """Copy the whole database into the SQLite file at ``path``."""
        with self._lock, closing(sqlite3.connect(str(path))) as target:
            self._conn.backup(target)

    def describe(self) -> Dict[str, object]:
        with self._lock:
            config = self.inverted_config()
            return {
                "backend": self.backend,
                "durable": self.durable,
                "path": self.path,
                "patterns": len(self._records),
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

    def __enter__(self) -> "SqliteStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _page_size(conn: sqlite3.Connection, path: Union[str, Path]) -> int:
    """The page size of the database file at ``path``, open on
    ``conn``. SQLite writes only whole pages, so a file that holds a
    partial one was truncated: :class:`sqlite3.DatabaseError`. (A cut
    at a page boundary SQLite itself refuses on the first read.)"""
    (page_size,) = conn.execute("PRAGMA page_size").fetchone()
    if os.path.getsize(path) % page_size:
        raise sqlite3.DatabaseError("file is truncated")
    return int(page_size)


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
