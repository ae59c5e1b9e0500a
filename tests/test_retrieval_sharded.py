"""Oracle equivalence of partition-parallel serving.

The law under test: for every query, ``ShardedMatchEngine`` over any
shard count and either partition key returns *exactly* what a
single-shard engine returns, which in turn equals the exhaustive scan —
same pattern ids, same distances, same order. Partitioning is pure
placement; none of it may change answers.
"""

import pytest

from tests.helpers import clustered_points, stream_batches
from tests.test_retrieval_engine import _as_pairs, exhaustive_scan
from repro.archive.archiver import PatternArchiver
from repro.archive.pattern_base import PatternBase
from repro.core.csgs import CSGS
from repro.matching.metric import DistanceMetricSpec
from repro.retrieval import (
    MatchEngine,
    MatchQuery,
    ShardedMatchEngine,
    ShardedPatternBase,
)

SHARD_COUNTS = (1, 2, 4)
PARTITION_KEYS = ("window", "feature")


def _populated_base(seed=1, inverted_levels=None):
    points = clustered_points(
        [(2.0, 2.0), (6.0, 5.0), (4.0, 8.0)],
        per_cluster=250,
        noise=120,
        seed=seed,
    )
    base = PatternBase(inverted_levels=inverted_levels)
    archiver = PatternArchiver(base)
    csgs = CSGS(0.35, 5, 2)
    last = None
    for batch in stream_batches(points, 300, 100):
        last = csgs.process_batch(batch)
        archiver.archive_output(last)
    return base, last


def _sharded(base, shards, key, **kwargs):
    return ShardedPatternBase.from_base(base, shards, key, **kwargs)


# ----------------------------------------------------------------------
# The partitioned archive itself
# ----------------------------------------------------------------------


@pytest.mark.parametrize("key", PARTITION_KEYS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_partitioning_preserves_contents(shards, key):
    base, _ = _populated_base(seed=1)
    sharded = _sharded(base, shards, key)
    assert len(sharded) == len(base)
    assert sum(sharded.shard_sizes()) == len(base)
    assert sharded.summary_bytes() == base.summary_bytes()
    for pattern in base.all_patterns():
        assert pattern.pattern_id in sharded
        copy = sharded.get(pattern.pattern_id)
        assert (copy.window_index, copy.full_size, copy.features) == (
            pattern.window_index, pattern.full_size, pattern.features
        )
        assert copy.sgs is pattern.sgs  # the record is copied, not the SGS
    if shards > 1:
        assert sum(1 for size in sharded.shard_sizes() if size) > 1, (
            "partitioning left everything on one shard"
        )


def test_placement_is_deterministic():
    base, _ = _populated_base(seed=2)
    for key in PARTITION_KEYS:
        first = _sharded(base, 3, key)
        second = _sharded(base, 3, key)
        for pattern in base.all_patterns():
            assert first.shard_for(pattern) == second.shard_for(pattern)


def test_index_probes_route_through_shards():
    base, last = _populated_base(seed=3)
    sharded = _sharded(base, 3, "feature")
    mbr = last.summaries[0].mbr()
    assert {p.pattern_id for p in sharded.overlapping(mbr)} == {
        p.pattern_id for p in base.overlapping(mbr)
    }
    lows = [0.0, 0.0, 0.0, 0.0]
    highs = [float("inf")] * 4
    assert {
        p.pattern_id for p in sharded.in_feature_ranges(lows, highs)
    } == {p.pattern_id for p in base.in_feature_ranges(lows, highs)}


def test_add_and_remove_route_to_owner_shard():
    base, last = _populated_base(seed=4)
    sharded = _sharded(base, 2, "window")
    before = len(sharded)
    pattern = sharded.add(last.summaries[0], 42)
    assert len(sharded) == before + 1
    assert sharded.get(pattern.pattern_id) is pattern
    assert sharded.remove(pattern.pattern_id)
    assert not sharded.remove(pattern.pattern_id)
    assert len(sharded) == before


def test_sharded_base_validation():
    with pytest.raises(ValueError):
        ShardedPatternBase(0)
    with pytest.raises(ValueError):
        ShardedPatternBase(2, "bogus")
    base, _ = _populated_base(seed=1)
    sharded = _sharded(base, 2, "window")
    with pytest.raises(ValueError):
        sharded.restore(next(iter(base.all_patterns())))


# ----------------------------------------------------------------------
# Oracle equivalence: sharded == single-shard == exhaustive
# ----------------------------------------------------------------------


@pytest.mark.parametrize("key", PARTITION_KEYS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_engine_equals_single_and_exhaustive(shards, key):
    base, last = _populated_base(seed=1)
    single = MatchEngine(base, use_inverted=False)
    sharded_engine = ShardedMatchEngine(_sharded(base, shards, key))
    ps_spec = DistanceMetricSpec(position_sensitive=True)
    for query_sgs in last.summaries[:2]:
        for threshold, top_k, metric, coarse in (
            (0.2, None, DistanceMetricSpec(), 0),
            (0.45, None, DistanceMetricSpec(), 1),
            (0.6, 3, DistanceMetricSpec(), 1),
            (0.3, None, ps_spec, 0),
            (0.5, 2, ps_spec, 1),
        ):
            query = MatchQuery(
                sgs=query_sgs,
                threshold=threshold,
                top_k=top_k,
                metric=metric,
                coarse_level=coarse,
            )
            merged, stats = sharded_engine.match(query)
            solo, solo_stats = single.match(query)
            assert _as_pairs(merged) == _as_pairs(solo), (
                f"sharded({shards},{key}) diverged at t={threshold}, "
                f"k={top_k}, ps={metric.position_sensitive}"
            )
            if top_k is None:
                assert _as_pairs(merged) == exhaustive_scan(base, query)
            assert stats.plan["shards"] == shards
            assert stats.archive_size == solo_stats.archive_size
            assert stats.matches == solo_stats.matches


@pytest.mark.parametrize("key", PARTITION_KEYS)
def test_sharded_match_many_equals_sequential(key):
    base, last = _populated_base(seed=2)
    engine = ShardedMatchEngine(
        _sharded(base, 4, key, inverted_levels=(1,))
    )
    queries = [
        MatchQuery(sgs=sgs, threshold=threshold, top_k=top_k, coarse_level=c)
        for sgs in last.summaries[:3]
        for threshold, top_k, c in (
            (0.25, None, 0),
            (0.5, 4, 1),
        )
    ]
    batched = engine.match_many(queries)
    assert len(batched) == len(queries)
    for query, (results, stats) in zip(queries, batched):
        solo_results, _ = engine.match(query)
        assert _as_pairs(results) == _as_pairs(solo_results)
        assert stats.plan["entry"] == "sharded"
    assert engine.match_many([]) == []


def test_serial_default_identical_to_process_workers():
    base, last = _populated_base(seed=3)
    sharded = _sharded(base, 3, "window")
    query = MatchQuery(sgs=last.summaries[0], threshold=0.5, coarse_level=1)
    with ShardedMatchEngine(sharded, mode="process") as parallel:
        with ShardedMatchEngine(sharded) as serial:
            assert parallel.parallel and not serial.parallel
            par_results, par_stats = parallel.match(query)
            ser_results, ser_stats = serial.match(query)
    assert _as_pairs(par_results) == _as_pairs(ser_results)
    assert par_stats.plan["parallel"] is True
    assert ser_stats.plan["parallel"] is False


def test_sharded_engine_with_inverted_index():
    """Shards carry their own inverted indices; the sharded answers
    still match the unsharded ladder engine exactly."""
    base, last = _populated_base(seed=4)
    engine = ShardedMatchEngine(
        _sharded(base, 2, "feature", inverted_levels=(1,))
    )
    plain = MatchEngine(base, use_inverted=False)
    for threshold in (0.3, 0.7):
        query = MatchQuery(
            sgs=last.summaries[0], threshold=threshold, coarse_level=1
        )
        merged, stats = engine.match(query)
        assert _as_pairs(merged) == _as_pairs(plain.match(query)[0])
        assert stats.coarse_screen in ("inverted", "")


def test_sharded_cache_management_forwards():
    """A coarse query reaches every shard's engine, and each builds its
    own ladder cache (``MatchEngine.invalidate`` drops one)."""
    base, last = _populated_base(seed=5)
    sharded = _sharded(base, 2, "window")
    engine = ShardedMatchEngine(sharded, min_coarse_cells=1)
    engine.match(
        MatchQuery(sgs=last.summaries[0], threshold=0.5, coarse_level=1)
    )
    assert all(shard._ladders for shard in engine.engines)


def test_sharded_inverted_view_reads():
    """The merged inverted view (what a plain engine over a sharded
    base screens through) answers signature/covers/contains/len by
    routing to the owning shard."""
    base, _ = _populated_base(seed=6, inverted_levels=(1,))
    sharded = _sharded(base, 2, "window")
    view = sharded.inverted_index()
    assert view is not None
    assert view.covers(1) and not view.covers(3)
    assert len(view) == len(base)
    flat_index = base.inverted_index()
    for pattern in base.all_patterns():
        assert pattern.pattern_id in view
        assert view.signature(pattern.pattern_id, 1).cells == (
            flat_index.signature(pattern.pattern_id, 1).cells
        )
    assert view.signature(10**9, 1) is None
    assert 10**9 not in view
    # A mixed layout (one shard indexed, one not) exposes no view.
    partial = ShardedPatternBase(2, "window")
    for pattern in base.all_patterns():
        partial.restore(pattern)
    assert partial.inverted_index() is None  # no shard indexed yet
    partial.shards()[0].enable_inverted((1,))
    assert partial.inverted_index() is None  # still not all shards


def test_from_base_transfers_persisted_signatures(monkeypatch):
    """Partitioning a base that already carries signatures (a reopened
    or loaded archive) must transfer them to the shard indices, never
    re-run the coarsening arithmetic the stored postings exist to
    skip."""
    import repro.retrieval.inverted as inverted_module

    base, _ = _populated_base(seed=8, inverted_levels=(1,))
    source = base.inverted_index()

    def recomputed(*args, **kwargs):
        raise AssertionError("signature recomputed during from_base")

    monkeypatch.setattr(
        inverted_module, "canonical_cell_signature", recomputed
    )
    sharded = _sharded(base, 2, "window")
    view = sharded.inverted_index()
    assert view is not None
    for pattern in base.all_patterns():
        assert view.signature(pattern.pattern_id, 1).cells == (
            source.signature(pattern.pattern_id, 1).cells
        )
    # Requesting rungs the source lacks falls back to a rebuild, which
    # legitimately coarsens again.
    monkeypatch.undo()
    rebuilt = _sharded(base, 2, "window", inverted_levels=(1, 2))
    assert rebuilt.inverted_index().covers(2)


def test_analyzer_and_plain_engine_serve_sharded_base():
    """The Pattern Analyzer over a partitioned archive — a
    ShardedMatchEngine — answers like one engine over the flat archive,
    and even a plain MatchEngine pointed directly at the sharded base
    works: the merged feature-index and inverted views give the planner
    and the screen their full read surface."""
    base, last = _populated_base(seed=9, inverted_levels=(1,))
    sharded = _sharded(base, 2, "window")
    fanned = ShardedMatchEngine(sharded)
    reference = MatchEngine(base, use_inverted=False)
    query_sgs = last.summaries[0]
    for threshold in (0.3, 0.9):
        query = MatchQuery(sgs=query_sgs, threshold=threshold)
        results, _ = fanned.match(query)
        assert _as_pairs(results) == _as_pairs(
            reference.match_sgs(query_sgs, threshold)[0]
        )
    # Direct (non-fanned) engine over the sharded base: planner probes
    # the merged views, answers stay identical — including the
    # inverted entry, which walks the merged posting lists.
    direct = MatchEngine(sharded)
    for threshold, coarse in ((0.3, 0), (0.5, 1), (0.9, 1)):
        query = MatchQuery(
            sgs=query_sgs, threshold=threshold, coarse_level=coarse
        )
        results, stats = direct.match(query)
        assert _as_pairs(results) == _as_pairs(reference.match(query)[0])
    assert sharded.feature_index().covers_occupied_extent(
        [0.0] * 4, [float("inf")] * 4
    )


def test_removal_listeners_do_not_accumulate():
    """Transient engines over a grow-only archive must not leak
    listener weakrefs: the subscribe-time dedup scan prunes dead
    refs."""
    import gc

    base, _ = _populated_base(seed=1)
    keep = MatchEngine(base)
    for _ in range(20):
        MatchEngine(base)  # transient: dropped immediately
        gc.collect()
    gc.collect()
    live = [ref for ref in base._removal_listeners if ref() is not None]
    assert keep in [ref() for ref in live]
    assert len(base._removal_listeners) <= len(live) + 1
