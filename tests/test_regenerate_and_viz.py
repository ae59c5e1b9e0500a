"""Unit tests for full-representation regeneration and ASCII rendering."""

import pytest

from tests.helpers import clustered_points, covers_point, stream_batches
from repro.core.cells import CellStatus, SkeletalGridCell
from repro.core.csgs import CSGS
from repro.core.regenerate import regenerate_cluster
from repro.core.sgs import SGS
from repro.eval.oracle import oracle_similarity
from repro.viz.ascii_art import render_sgs


def _extracted(seed=1):
    points = clustered_points([(2.0, 2.0)], per_cluster=400, seed=seed)
    csgs = CSGS(0.3, 5, 2)
    output = None
    for batch in stream_batches(points, 400, 200):
        output = csgs.process_batch(batch)
    cluster = max(output.clusters, key=lambda c: c.size)
    return cluster, output.summaries[cluster.cluster_id]


# ---------------------------------------------------------------------------
# Regeneration
# ---------------------------------------------------------------------------


def _regenerated_points(sgs, seed):
    return [obj.coords for obj in regenerate_cluster(sgs, seed=seed).members]


def test_regenerated_population_matches():
    _, sgs = _extracted()
    points = _regenerated_points(sgs, seed=2)
    assert len(points) == sgs.population


def test_regenerated_points_inside_cells():
    _, sgs = _extracted()
    for point in _regenerated_points(sgs, seed=3):
        assert covers_point(sgs, point)


def test_regenerated_cluster_statuses():
    _, sgs = _extracted()
    cluster = regenerate_cluster(sgs, seed=4)
    assert cluster.size == sgs.population
    core_cells = {c.location for c in sgs.cells.values() if c.is_core}
    for obj in cluster.core_objects:
        coord = tuple(
            int(v // sgs.side_length) for v in obj.coords
        )
        assert coord in core_cells


def test_regenerated_cluster_resembles_original():
    original, sgs = _extracted()
    regenerated = regenerate_cluster(sgs, seed=5)
    similarity = oracle_similarity(original, regenerated, 0.3)
    assert similarity > 0.5, (
        f"regenerated cluster too dissimilar: {similarity}"
    )


def test_regeneration_deterministic():
    _, sgs = _extracted()
    assert _regenerated_points(sgs, seed=6) == _regenerated_points(sgs, seed=6)
    assert _regenerated_points(sgs, seed=6) != _regenerated_points(sgs, seed=7)


# ---------------------------------------------------------------------------
# ASCII rendering
# ---------------------------------------------------------------------------


def _tiny_sgs():
    cells = [
        SkeletalGridCell((0, 0), 0.5, 9, CellStatus.CORE, frozenset({(1, 0)})),
        SkeletalGridCell((1, 0), 0.5, 3, CellStatus.CORE, frozenset({(0, 0)})),
        SkeletalGridCell((1, 1), 0.5, 1, CellStatus.EDGE),
    ]
    return SGS.from_cells(cells, 0.5, cluster_id=4, window_index=2)


def test_render_dimensions_and_symbols():
    art = render_sgs(_tiny_sgs(), border=False)
    lines = art.split("\n")
    assert len(lines) == 2  # y in {0, 1}
    assert len(lines[0]) == 2  # x in {0, 1}
    assert "+" in art  # the edge cell
    # Densest core cell uses the darkest ramp character.
    assert "#" in art


def test_render_with_border():
    art = render_sgs(_tiny_sgs())
    assert art.startswith("┌") and art.endswith("┘")


def test_render_rejects_non_2d():
    cells = [SkeletalGridCell((0, 0, 0), 0.5, 1, CellStatus.CORE)]
    with pytest.raises(ValueError):
        render_sgs(SGS.from_cells(cells, 0.5))


def test_render_real_extraction():
    _, sgs = _extracted(seed=8)
    art = render_sgs(sgs)
    assert len(art.split("\n")) > 3
