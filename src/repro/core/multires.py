"""Multi-resolution SGS compression (Section 6.1).

The Basic SGS emitted by the Pattern Extractor is at Level 0 (finest
cells, diagonal = θr). A Level-n SGS combines every θ-sized hypercube of
Level n-1 cells into one coarser skeletal grid cell, in a single scan:

* side length multiplies by θ;
* a coarse cell is core when any covered finer cell is core;
* population is the sum of covered populations;
* a coarse connection exists between two coarse cells when any covered
  boundary cells of the finer level are connected across them.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.core.cells import Coord, block_neighbors, connection_block
from repro.core.sgs import SGS


def parent_coord(coord: Coord, factor: int) -> Coord:
    """The coarser-level cell containing ``coord`` when every ``factor``
    hypercube of finer cells folds into one coarser cell.

    This is the nesting relation of the multi-resolution cell hierarchy,
    shared by SGS coarsening and the multiplexing substrate
    (:mod:`repro.multiplex.provider` uses it to account for how each
    query rung's cells nest inside the shared top-rung gather cells).
    """
    # Python's floor division handles negative grid coordinates correctly.
    return tuple(c // factor for c in coord)


def coarsen_sgs(sgs: SGS, factor: int = 3) -> SGS:
    """Build the next-coarser resolution level of an SGS.

    ``factor`` is the compression rate θ: each coarse cell covers a
    θ-sized hypercube of finer cells. Runs in one scan of the finer cells.
    """
    if factor < 2:
        raise ValueError("compression factor must be at least 2")

    populations: Dict[Coord, int] = {}
    core: Dict[Coord, bool] = {}
    connections: Dict[Coord, Set[Coord]] = {}

    rows = sgs.rows
    parents = {coord: parent_coord(coord, factor) for coord in rows}
    for coord, (is_core, population, _) in rows.items():
        parent = parents[coord]
        populations[parent] = populations.get(parent, 0) + population
        core[parent] = is_core or core.get(parent, False)

    # Cross-boundary fine connections induce coarse connections. Fine
    # connection vectors live on core cells only (Definition 4.4), and
    # cover both core-core connections and edge attachments, so scanning
    # them reproduces both relations at the coarse level. A neighbor
    # outside the summary induces nothing, so its parent is never needed.
    for coord, (_, _, block) in rows.items():
        parent = parents[coord]
        for other in block_neighbors(coord, block):
            other_parent = parents.get(other)
            if other_parent is None or other_parent == parent:
                continue
            connections.setdefault(parent, set()).add(other_parent)
            connections.setdefault(other_parent, set()).add(parent)

    return SGS(
        {
            coord: (
                core[coord],
                population,
                connection_block(coord, sorted(connections.get(coord, ())))
                if core[coord]
                else b"",
            )
            for coord, population in populations.items()
        },
        sgs.side_length * factor,
        level=sgs.level + 1,
        cluster_id=sgs.cluster_id,
        window_index=sgs.window_index,
    )


def cells_needed_at_level(sgs: SGS, factor: int, level: int) -> int:
    """Predict the number of cells of ``sgs`` at a coarser ``level``
    without building it — the space-consumption estimate of Section 6.1's
    budget-aware resolution selection."""
    if level < sgs.level:
        raise ValueError("cannot predict a finer level than the input")
    scale = factor ** (level - sgs.level)
    parents = {
        tuple(c // scale for c in coord) for coord in sgs.rows
    }
    return len(parents)
