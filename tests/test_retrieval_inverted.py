"""The inverted cell-signature index and its certified coarse screen.

Three nets:

* the **conservativeness property** (Hypothesis): the screen's
  certified distance floor never exceeds the coarse distance the lazy
  ladder screen computes — so the inverted screen can never drop a
  pattern the ladder screen would keep, for *any* SGS pair, any rung,
  any margin;
* **oracle equivalence**: an engine serving through the inverted index
  returns exactly what the ladder engine and the exhaustive scan
  return, across seeds, thresholds, and coarse levels — including the
  planner's ``inverted`` entry replacing the full scan;
* **maintenance**: postings and signatures track archival and eviction
  exactly (the regression for the stale-cache resurrection bug lives
  in ``test_archive_maintenance.py``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import clustered_points, stream_batches
from tests.test_retrieval_engine import _as_pairs, exhaustive_scan
from repro.archive.archiver import PatternArchiver
from repro.archive.pattern_base import PatternBase
from repro.core.cells import CellStatus, SkeletalGridCell
from repro.core.csgs import CSGS
from repro.core.features import ClusterFeatures
from repro.core.multires import coarsen_sgs
from repro.core.sgs import SGS
from repro.matching.alignment import anytime_alignment_search
from repro.matching.metric import DistanceMetricSpec
from repro.retrieval import (
    ENTRY_INVERTED,
    ENTRY_SCAN,
    InvertedCellIndex,
    MatchEngine,
    MatchQuery,
    plan_query,
)
from repro.retrieval.inverted import (
    InvertedScreen,
    axis_histograms,
    canonical_cell_signature,
    canonical_origin,
    distance_floor,
    max_shift_correlation,
)


def _populated_base(seed=1, inverted_levels=None, dims=2):
    points = clustered_points(
        [(2.0, 2.0), (6.0, 5.0), (4.0, 8.0)],
        per_cluster=250,
        noise=120,
        seed=seed,
    )
    base = PatternBase(inverted_levels=inverted_levels)
    archiver = PatternArchiver(base)
    csgs = CSGS(0.35, 5, dims)
    last = None
    for batch in stream_batches(points, 300, 100):
        last = csgs.process_batch(batch)
        archiver.archive_output(last)
    return base, last


# ----------------------------------------------------------------------
# Signature construction
# ----------------------------------------------------------------------


def _sgs_from_locations(locations, side=1.0, window=0):
    cells = [
        SkeletalGridCell(
            loc, side, 1 + i % 3, CellStatus.CORE, frozenset()
        )
        for i, loc in enumerate(sorted(set(locations)))
    ]
    return SGS.from_cells(cells, side, window_index=window)


def test_signature_matches_engine_ladder_cells():
    """The floor-division shortcut must describe exactly the cell set
    of the engine's canonical ladder rung (iterated coarsening)."""
    base, _ = _populated_base(seed=2)
    for pattern in base.all_patterns():
        for level in (1, 2):
            ladder = canonical_origin(pattern.sgs)
            for _ in range(level):
                ladder = coarsen_sgs(ladder, 3)
            assert canonical_cell_signature(
                pattern.sgs, level, 3
            ) == frozenset(ladder.cells), (
                f"signature diverged from ladder at level {level}"
            )


def test_signature_translation_invariant():
    sgs = _sgs_from_locations([(0, 0), (1, 2), (4, 1), (3, 3)])
    shifted = _sgs_from_locations(
        [(7, -5), (8, -3), (11, -4), (10, -2)]
    )
    for level in (1, 2):
        assert canonical_cell_signature(
            sgs, level, 3
        ) == canonical_cell_signature(shifted, level, 3)


def test_axis_histograms_and_correlation():
    hist = axis_histograms([(0, 0), (0, 1), (2, 0)], 2)
    assert hist == ((2, 0, 1), (2, 1))
    assert max_shift_correlation((2, 0, 1), (2, 0, 1)) == 3
    # A shifted copy correlates fully at the matching offset.
    assert max_shift_correlation((2, 0, 1), (0, 2, 0, 1)) == 3
    assert max_shift_correlation((1,), ()) == 0


def test_distance_floor_matches_counting_argument():
    # Disjoint sets: every cell unmatched, distance exactly 1.
    assert distance_floor(4, 6, 0) == 1.0
    # Identical sets under full overlap: floor 0.
    assert distance_floor(5, 5, 5) == 0.0
    # a=4, b=6, m=3: (4+6-6)/(4+6-3) = 4/7.
    assert distance_floor(4, 6, 3) == pytest.approx(4.0 / 7.0)


# ----------------------------------------------------------------------
# The conservativeness property (Hypothesis)
# ----------------------------------------------------------------------

_coord = st.tuples(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-6, max_value=6),
)
_cell_sets = st.lists(_coord, min_size=1, max_size=24, unique=True)


@settings(max_examples=120, deadline=None)
@given(_cell_sets, _cell_sets, st.integers(min_value=1, max_value=2))
def test_certified_floor_never_exceeds_ladder_distance(
    locs_a, locs_b, level
):
    """The screen's reject bound is a true lower bound on the coarse
    distance the ladder screen computes (any alignment the anytime
    search returns) — hence the inverted screen never drops a pattern
    the ladder screen would keep."""
    sgs_a = _sgs_from_locations(locs_a)
    sgs_b = _sgs_from_locations(locs_b)
    spec = DistanceMetricSpec()
    coarse_a = canonical_origin(sgs_a)
    coarse_b = canonical_origin(sgs_b)
    for _ in range(level):
        coarse_a = coarsen_sgs(coarse_a, 3)
        coarse_b = coarsen_sgs(coarse_b, 3)
    ladder_distance = anytime_alignment_search(
        coarse_a, coarse_b, spec, max_expansions=16
    ).distance

    index = InvertedCellIndex(levels=(level,), factor=3)
    index.add(7, sgs_b)
    screen = InvertedScreen(index, level, sgs_a, tau=0.0, guard=0)
    signature = index.signature(7, level)
    bound = screen.query.overlap_bound(signature)
    floor = distance_floor(screen.query.size, signature.size, bound)
    assert floor <= ladder_distance + 1e-9, (
        f"certified floor {floor} exceeds ladder distance "
        f"{ladder_distance}"
    )
    # And therefore: whenever the ladder keeps (distance <= tau), the
    # screen keeps too, at every tau.
    for tau in (0.0, 0.2, 0.45, 0.7):
        probe = InvertedScreen(index, level, sgs_a, tau=tau, guard=0)
        if ladder_distance <= tau:
            assert probe.admits(7)


# ----------------------------------------------------------------------
# Index maintenance
# ----------------------------------------------------------------------


def test_index_tracks_add_and_remove():
    base, _ = _populated_base(seed=3, inverted_levels=(1,))
    index = base.inverted_index()
    assert len(index) == len(base)
    total_postings = index.stats["postings"]
    assert total_postings > 0
    victim = next(iter(base.all_patterns())).pattern_id
    assert victim in index
    assert base.remove(victim)
    assert victim not in index
    assert len(index) == len(base)
    assert index.stats["postings"] < total_postings
    # No posting list anywhere still names the victim.
    for level in index.levels:
        for pattern in base.all_patterns():
            counts = index.overlap_counts(
                index.signature(pattern.pattern_id, level).cells, level
            )
            assert victim not in counts


def test_enable_inverted_rebuilds_for_existing_patterns():
    base, _ = _populated_base(seed=4)
    assert base.inverted_index() is None
    index = base.enable_inverted((1, 2))
    assert base.inverted_index() is index
    assert len(index) == len(base)
    fresh = InvertedCellIndex((1, 2))
    for pattern in base.all_patterns():
        fresh.add(pattern.pattern_id, pattern.sgs)
        for level in (1, 2):
            assert index.signature(
                pattern.pattern_id, level
            ).cells == fresh.signature(pattern.pattern_id, level).cells


def test_index_validation():
    with pytest.raises(ValueError):
        InvertedCellIndex(())
    with pytest.raises(ValueError):
        InvertedCellIndex((0,))
    with pytest.raises(ValueError):
        InvertedCellIndex((1,), factor=1)
    # Levels and factor persist as single bytes (format v3): reject
    # out-of-range values up front, not at dump time.
    with pytest.raises(ValueError):
        InvertedCellIndex((300,))
    with pytest.raises(ValueError):
        InvertedCellIndex((1,), factor=300)
    index = InvertedCellIndex((1,))
    sgs = _sgs_from_locations([(0, 0), (3, 3)])
    index.add(1, sgs)
    with pytest.raises(ValueError):
        index.add(1, sgs)
    assert index.remove(1)
    assert not index.remove(1)


# ----------------------------------------------------------------------
# Oracle equivalence of the inverted-screened engine
# ----------------------------------------------------------------------


@pytest.mark.parametrize("coarse_level", (1, 2))
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_inverted_engine_equals_exhaustive_scan(seed, coarse_level):
    base, last = _populated_base(seed=seed, inverted_levels=(1, 2))
    engine = MatchEngine(base)
    for query_sgs in last.summaries[:2]:
        for threshold in (0.15, 0.3, 0.45):
            query = MatchQuery(
                sgs=query_sgs,
                threshold=threshold,
                coarse_level=coarse_level,
            )
            results, stats = engine.match(query)
            assert _as_pairs(results) == exhaustive_scan(base, query)
            if stats.entry != "rtree":
                assert stats.coarse_screen == "inverted"


def test_inverted_and_ladder_engines_agree():
    base, last = _populated_base(seed=5, inverted_levels=(1,))
    inverted_engine = MatchEngine(base)
    ladder_engine = MatchEngine(base, use_inverted=False)
    for threshold in (0.2, 0.5):
        query = MatchQuery(
            sgs=last.summaries[0], threshold=threshold, coarse_level=1
        )
        inv_results, inv_stats = inverted_engine.match(query)
        lad_results, lad_stats = ladder_engine.match(query)
        assert _as_pairs(inv_results) == _as_pairs(lad_results)
        assert inv_stats.coarse_screen in ("inverted", "")
        assert lad_stats.coarse_screen in ("ladder", "")
        # Conservativeness: everything the ladder refined, the inverted
        # screen refined too.
        assert inv_stats.refined >= lad_stats.refined


def test_inverted_match_many_equals_sequential():
    base, last = _populated_base(seed=6, inverted_levels=(1,))
    engine = MatchEngine(base)
    queries = [
        MatchQuery(sgs=sgs, threshold=threshold, coarse_level=1)
        for sgs in last.summaries[:3]
        for threshold in (0.3, 0.6)
    ]
    batched = engine.match_many(queries)
    for query, (results, stats) in zip(queries, batched):
        solo_results, _ = engine.match(query)
        assert _as_pairs(results) == _as_pairs(solo_results)
        assert stats.plan["shared_gather"] is True


# ----------------------------------------------------------------------
# The planner's inverted entry
# ----------------------------------------------------------------------


def _plan_for(base, query, inverted):
    features = ClusterFeatures.from_sgs(query.sgs)
    return plan_query(
        base, query, features, query.sgs.mbr(), inverted=inverted
    )


def test_planner_prefers_inverted_over_powerless_scan():
    base, last = _populated_base(seed=1, inverted_levels=(1,))
    query = MatchQuery(
        sgs=last.summaries[0], threshold=1.0, coarse_level=1
    )
    assert _plan_for(base, query, inverted=True).entry == ENTRY_INVERTED
    assert _plan_for(base, query, inverted=False).entry == ENTRY_SCAN


def test_inverted_entry_never_changes_answers():
    base, last = _populated_base(seed=2, inverted_levels=(1,))
    engine = MatchEngine(base)
    plain = MatchEngine(base, use_inverted=False)
    query = MatchQuery(
        sgs=last.summaries[0], threshold=0.9, coarse_level=1
    )
    results, stats = engine.match(query)
    plain_results, plain_stats = plain.match(query)
    assert stats.entry == ENTRY_INVERTED
    assert plain_stats.entry == ENTRY_SCAN
    assert _as_pairs(results) == _as_pairs(plain_results)
    assert stats.gathered <= plain_stats.gathered


def test_engine_stands_down_on_mismatched_factor():
    """An index built at a different compression rate describes
    different coarse cells; the engine must fall back to the ladder."""
    base, last = _populated_base(seed=3)
    base.enable_inverted((1,), factor=2)
    engine = MatchEngine(base)  # ladder_factor=3
    query = MatchQuery(sgs=last.summaries[0], threshold=0.4, coarse_level=1)
    results, stats = engine.match(query)
    assert stats.coarse_screen in ("ladder", "")
    assert _as_pairs(results) == exhaustive_scan(base, query)


def test_position_sensitive_keeps_ladder_screen():
    base, last = _populated_base(seed=4, inverted_levels=(1,))
    spec = DistanceMetricSpec(position_sensitive=True)
    engine = MatchEngine(base, spec)
    query = MatchQuery(
        sgs=last.summaries[0], threshold=0.4, metric=spec, coarse_level=1
    )
    results, stats = engine.match(query)
    assert stats.coarse_screen in ("ladder", "")
    assert _as_pairs(results) == exhaustive_scan(base, query)


def test_screen_defensive_paths():
    """Unindexed candidates and stale posting ids stand down or drop
    out without ever faking a match."""
    base, last = _populated_base(seed=7, inverted_levels=(1,))
    index = base.inverted_index()
    screen = InvertedScreen(index, 1, last.summaries[0], tau=0.0, guard=0)
    # A pattern the index never saw is admitted conservatively.
    assert screen.admits(10**9)
    # A stale posting id (removed from the base but manually left in
    # the index) is dropped by survivors() — never resurrected.
    victim = next(iter(base.all_patterns()))
    signatures = {
        level: index.signature(victim.pattern_id, level).cells
        for level in index.levels
    }
    base.remove(victim.pattern_id)
    index.restore_signatures(
        victim.pattern_id, signatures, victim.sgs.dimensions
    )
    fresh = InvertedScreen(index, 1, last.summaries[0], tau=1.0, guard=0)
    survivors = fresh.survivors(base)
    assert victim.pattern_id not in {p.pattern_id for p in survivors}
    with pytest.raises(ValueError):
        index.restore_signatures(victim.pattern_id, signatures, 2)
    with pytest.raises(ValueError):
        index.restore_signatures(10**6, {}, 2)


def test_empty_histograms():
    assert axis_histograms([], 2) == ((), ())


def test_attach_inverted_validates_contents():
    base, _ = _populated_base(seed=8)
    index = InvertedCellIndex((1,))
    with pytest.raises(ValueError):
        base.attach_inverted(index)
