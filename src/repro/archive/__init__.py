"""Pattern archival: Archiver and Pattern Base (matching lives in
:mod:`repro.retrieval`)."""

from repro.archive.archiver import ArchiveAllPolicy, PatternArchiver
from repro.archive.pattern_base import ArchivedPattern, PatternBase

__all__ = [
    "ArchiveAllPolicy",
    "ArchivedPattern",
    "PatternArchiver",
    "PatternBase",
]
