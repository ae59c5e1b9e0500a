"""The Pattern Archiver (Section 6): selection + resolution control.

Decides *which* freshly extracted clusters enter the Pattern Base and
*at which resolution* they are stored. Selection is an
:class:`ArchivePolicy` (archive everything by default); resolution
selection is budget- and accuracy-aware via the deterministic
cell-count prediction of Section 6.1.
"""

from __future__ import annotations

from typing import List, Optional

from repro.archive.pattern_base import ArchivedPattern, PatternBase
from repro.core.csgs import WindowOutput
from repro.core.multires import cells_needed_at_level, coarsen_sgs
from repro.core.sgs import SGS
from repro.eval.memory import sgs_cell_bytes


class ArchivePolicy:
    """Decides whether a freshly extracted cluster should be archived."""

    def admit(self, sgs: SGS, full_size: int) -> bool:
        raise NotImplementedError


class ArchiveAllPolicy(ArchivePolicy):
    """Keep every extracted cluster."""

    def admit(self, sgs: SGS, full_size: int) -> bool:
        return True


class PatternArchiver:
    """Feeds selected clusters, at a chosen resolution, into the base.

    ``level`` pins a fixed resolution (0 = Basic SGS). Alternatively,
    ``byte_budget_per_cluster`` activates budget-aware selection: the
    finest level whose predicted size fits the budget is used, up to
    ``max_level`` coarsenings with compression rate ``factor``.
    """

    def __init__(
        self,
        base: PatternBase,
        policy: Optional[ArchivePolicy] = None,
        level: int = 0,
        factor: int = 3,
        max_level: int = 3,
        byte_budget_per_cluster: Optional[int] = None,
    ):
        if level < 0:
            raise ValueError("level must be non-negative")
        self.base = base
        self.policy = policy if policy is not None else ArchiveAllPolicy()
        self.level = level
        self.factor = factor
        self.max_level = max_level
        self.byte_budget_per_cluster = byte_budget_per_cluster

    def _choose_level(self, sgs: SGS) -> int:
        if self.byte_budget_per_cluster is None:
            return self.level
        per_cell = sgs_cell_bytes(sgs.dimensions)
        for level in range(0, self.max_level + 1):
            cells = cells_needed_at_level(sgs, self.factor, level)
            if cells * per_cell <= self.byte_budget_per_cluster:
                return level
        return self.max_level

    def _at_level(self, sgs: SGS, level: int) -> SGS:
        current = sgs
        for _ in range(level):
            current = coarsen_sgs(current, self.factor)
        return current

    def archive_output(self, output: WindowOutput) -> List[ArchivedPattern]:
        """Archive the admitted clusters of one window's output."""
        archived: List[ArchivedPattern] = []
        for cluster, sgs in zip(output.clusters, output.summaries):
            if not self.policy.admit(sgs, cluster.size):
                continue
            level = self._choose_level(sgs)
            stored = self._at_level(sgs, level)
            archived.append(self.base.add(stored, cluster.size))
        return archived

    def archive_sgs(self, sgs: SGS, full_size: int) -> Optional[ArchivedPattern]:
        """Archive one summary directly (convenience for tests/tools)."""
        if not self.policy.admit(sgs, full_size):
            return None
        stored = self._at_level(sgs, self._choose_level(sgs))
        return self.base.add(stored, full_size)
