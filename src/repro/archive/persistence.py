"""Durable storage for the Pattern Base.

The paper treats the Pattern Base as the long-term "Stream History"; a
history only deserves the name if it survives the process. This module
persists an archive to a single binary file — a small header plus one
length-prefixed :mod:`repro.core.serialize` blob per pattern (with its
full-representation size) — and restores it with identical pattern ids,
feature-index contents, and byte accounting.

Format (version 3; version-1 and version-2 files still load)::

    magic  b"SGSA"   | uint32 version | uint32 pattern count
    per pattern (v2+): uint32 pattern_id | uint32 full_size |
                       uint8 reserved | uint32 blob length | SGS blob
    per pattern (v1):  uint32 pattern_id | uint32 full_size |
                       uint32 blob length | SGS blob
    inverted section (v3): uint8 present
      when present: uint8 level count | that many uint8 levels |
                    uint8 factor | uint8 dimensions
      then per pattern (ascending id), per level (ascending):
                    uint32 cell count | cells × dims × int32 coords

The reserved byte once carried a matching engine's cache-warmth hint.
The archive holds no engine state any more, so it is written 0 and
ignored on load; the record layout, and with it every reader, is
unchanged.

The inverted section persists the archive's inverted cell-signature
index (:mod:`repro.retrieval.inverted`): each pattern's canonical-
origin coarse-cell sets at the configured rungs, written in sorted
order so dumps are byte-stable. Loading a v3 file feeds the stored
cell sets straight back into a fresh index — posting lists rebuild
from integer tuples with **zero** coarsening arithmetic, so a reloaded
history serves its first coarse query warm. Legacy files (v1/v2) carry
no section; callers re-enable the index with
:meth:`~repro.archive.pattern_base.PatternBase.enable_inverted`, which
rebuilds signatures from the stored summaries.
"""

from __future__ import annotations

import os
import struct
import tempfile
from pathlib import Path
from typing import BinaryIO, Optional, Union

from repro.archive.pattern_base import ArchivedPattern, PatternBase
from repro.core.serialize import sgs_from_bytes, sgs_to_bytes
from repro.retrieval.inverted import InvertedCellIndex

_MAGIC = b"SGSA"
_VERSION = 3

PathLike = Union[str, Path]


def dump_pattern_base(base, target: Union[PathLike, BinaryIO]) -> int:
    """Write an archive to ``target`` (path or binary stream).

    ``base`` may be a plain :class:`PatternBase` or any object with the
    same read surface (a
    :class:`~repro.retrieval.shards.ShardedPatternBase` serializes its
    merged contents; reloading yields one flat base to re-partition
    with ``ShardedPatternBase.from_base``). Returns the number of bytes
    written.

    Path targets are written atomically: the bytes go to a temporary
    file in the same directory, are flushed and fsynced, and only then
    replace the target — a crash mid-dump can never leave a torn file
    shadowing the previous good archive.
    """
    if isinstance(target, (str, Path)):
        directory = os.path.dirname(os.path.abspath(os.fspath(target)))
        fd, temp_path = tempfile.mkstemp(
            dir=directory, prefix=".sgsa-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                written = dump_pattern_base(base, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, target)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        return written
    written = 0
    patterns = sorted(base.all_patterns(), key=lambda p: p.pattern_id)
    header = _MAGIC + struct.pack("<II", _VERSION, len(patterns))
    target.write(header)
    written += len(header)
    for pattern in patterns:
        blob = sgs_to_bytes(pattern.sgs)
        record = struct.pack(
            "<IIBI", pattern.pattern_id, pattern.full_size, 0, len(blob)
        )
        target.write(record)
        target.write(blob)
        written += len(record) + len(blob)
    written += _dump_inverted_section(base, patterns, target)
    return written


def _dump_inverted_section(base, patterns, target: BinaryIO) -> int:
    index_of = getattr(base, "inverted_index", None)
    index = index_of() if index_of is not None else None
    if index is None:
        target.write(struct.pack("<B", 0))
        return 1
    dims = patterns[0].sgs.dimensions if patterns else 0
    out = [struct.pack("<BB", 1, len(index.levels))]
    out.append(struct.pack(f"<{len(index.levels)}B", *index.levels))
    out.append(struct.pack("<BB", index.factor, dims))
    for pattern in patterns:
        for level in index.levels:
            signature = index.signature(pattern.pattern_id, level)
            cells = sorted(signature.cells)
            out.append(struct.pack("<I", len(cells)))
            for cell in cells:
                out.append(struct.pack(f"<{dims}i", *cell))
    blob = b"".join(out)
    target.write(blob)
    return len(blob)


def load_pattern_base(
    source: Union[PathLike, BinaryIO],
    store: Optional[Union[str, object]] = None,
) -> PatternBase:
    """Read an archive written by :func:`dump_pattern_base`.

    Pattern ids are preserved; the feature and locational indices are
    rebuilt on load through the Pattern Base's public :meth:`restore`
    seam, and a v3 inverted section restores the inverted cell-signature
    index without recomputing any signature.

    ``store`` names the backend the loaded base should live on (a spec
    string like ``"sqlite:PATH"`` or an open
    :class:`~repro.archive.store.PatternStore`; ``None`` = in-memory).
    The import runs as one bulk transaction: a truncated or corrupt
    dump raises :class:`ValueError` and rolls a durable store back to
    its pre-load state — no partial archive survives on disk.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            return load_pattern_base(handle, store=store)
    magic = source.read(len(_MAGIC))
    if magic != _MAGIC:
        raise ValueError("not a Pattern Base archive file")
    version, count = struct.unpack(
        "<II", _read_exact(source, 8, "file header")
    )
    if version == 1:
        record_format = "<III"
    elif version in (2, _VERSION):
        record_format = "<IIBI"
    else:
        raise ValueError(f"unsupported archive version {version}")
    record_size = struct.calcsize(record_format)
    base = PatternBase(store=store)
    backing = base.store
    backing.begin_bulk()
    try:
        pattern_ids = []
        for _ in range(count):
            record = _read_exact(source, record_size, "pattern record")
            if version == 1:
                pattern_id, full_size, blob_length = struct.unpack(
                    record_format, record
                )
            else:
                pattern_id, full_size, _, blob_length = struct.unpack(
                    record_format, record
                )
            blob = _read_exact(source, blob_length, "SGS blob")
            sgs = sgs_from_bytes(blob)
            base.restore(ArchivedPattern(pattern_id, sgs, full_size))
            pattern_ids.append(pattern_id)
        if version >= _VERSION:
            _load_inverted_section(base, sorted(pattern_ids), source)
    except BaseException:
        backing.end_bulk(success=False)
        raise
    backing.end_bulk(success=True)
    return base


def _read_exact(
    source: BinaryIO, size: int, what: str = "inverted section"
) -> bytes:
    blob = source.read(size)
    if len(blob) != size:
        raise ValueError(f"truncated archive: missing {what}")
    return blob


def _load_inverted_section(
    base: PatternBase, pattern_ids, source: BinaryIO
) -> None:
    (present,) = struct.unpack("<B", _read_exact(source, 1))
    if not present:
        return
    (level_count,) = struct.unpack("<B", _read_exact(source, 1))
    levels = struct.unpack(
        f"<{level_count}B", _read_exact(source, level_count)
    )
    factor, dims = struct.unpack("<BB", _read_exact(source, 2))
    index = InvertedCellIndex(levels, factor)
    cell_size = struct.calcsize(f"<{dims}i") if dims else 0
    for pattern_id in pattern_ids:
        cells_by_level = {}
        for level in index.levels:
            (cell_count,) = struct.unpack("<I", _read_exact(source, 4))
            cells = []
            for _ in range(cell_count):
                cells.append(
                    struct.unpack(f"<{dims}i", _read_exact(source, cell_size))
                )
            cells_by_level[level] = cells
        index.restore_signatures(pattern_id, cells_by_level, dims)
    base.attach_inverted(index)
