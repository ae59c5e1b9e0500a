"""Dumps of the Pattern Base: SQLite files.

The paper treats the Pattern Base as the long-term "Stream History"; a
history only deserves the name if it survives the process. A base on
``sqlite:PATH`` is durable as it archives. :func:`dump_pattern_base`
writes any base — an in-memory one included — to a single SQLite file,
the same format: ``sqlite:FILE`` serves the file directly, and
:func:`load_pattern_base` copies it into a fresh in-memory base with
identical pattern ids, feature-index contents, byte accounting and
inverted cell-signature index (its posting lists are rows of the file,
so a reloaded history serves its first coarse query warm).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union

from repro.archive.pattern_base import PatternBase
from repro.archive.store import MEMORY, SqliteStore

PathLike = Union[str, Path]


def dump_pattern_base(base: PatternBase, path: PathLike) -> int:
    """Write ``base``'s database to the SQLite file ``path``; returns
    the file's size in bytes.

    The write is atomic: the backup goes to a temporary file in the
    same directory, is fsynced, and only then replaces the target — a
    crash mid-dump can never leave a torn file shadowing the previous
    good archive.
    """
    directory = os.path.dirname(os.path.abspath(os.fspath(path)))
    fd, temp_path = tempfile.mkstemp(
        dir=directory, prefix=".dump-", suffix=".tmp"
    )
    os.close(fd)
    try:
        base.store.backup(temp_path)
        fd = os.open(temp_path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    return os.path.getsize(path)


def load_pattern_base(path: PathLike) -> PatternBase:
    """Copy the archive file ``path`` into a fresh in-memory base.

    The file is only read. Raises :class:`ValueError` when it is not a
    readable archive (not SQLite, or truncated).
    """
    return PatternBase(store=SqliteStore(MEMORY, source=path))
