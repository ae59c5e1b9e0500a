"""Pattern archival and matching: Archiver, Pattern Base, Analyzer."""

from repro.archive.analyzer import MatchResult, MatchStats, PatternAnalyzer
from repro.archive.archiver import ArchiveAllPolicy, PatternArchiver
from repro.archive.pattern_base import ArchivedPattern, PatternBase

__all__ = [
    "ArchiveAllPolicy",
    "ArchivedPattern",
    "MatchResult",
    "MatchStats",
    "PatternAnalyzer",
    "PatternArchiver",
    "PatternBase",
]
