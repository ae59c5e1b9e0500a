"""The coarse-rung cache is keyed on the archive record.

``MatchEngine.pattern_at_level`` caches rungs 1.. against the stub the
base handed out and reads level 0 from the store on demand. The body it
replaced — valid while ``pattern.sgs`` is the very object it was built
from — lives on as ``ReferenceLadderEngine`` (``tests/helpers.py``) and
is the oracle here: over seeded and Hypothesis-made archives, on the
memory store and on a SQLite store whose LRU holds two summaries, every
answer, alignment and ``EngineStats`` must be identical after every
step of a script that mixes matches, batches, LRU churn, invalidation
and remove + restore under a reused id. The rest pins what the new key
buys: no pattern-side coarsening and no hydration beyond the refined
candidates on a repeated panel, and no stored-resolution summary held
behind the store's bounded LRU.
"""

import dataclasses
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import (
    ReferenceLadderEngine,
    clustered_points,
    stream_batches,
    summaries,
)
from repro.archive.pattern_base import ArchivedPattern, PatternBase
from repro.core.csgs import CSGS
from repro.matching.metric import DistanceMetricSpec
from repro.retrieval import (
    MatchEngine,
    MatchQuery,
    ShardedMatchEngine,
    ShardedPatternBase,
)
from repro.retrieval import engine as engine_module

PS = DistanceMetricSpec(position_sensitive=True)
PI = DistanceMetricSpec()
STORES = ("memory", "sqlite")


def _stream_archive(seed):
    """``[(sgs, full_size), ...]`` from a seeded three-blob stream."""
    points = clustered_points(
        [(2.0, 2.0), (6.0, 5.0), (4.0, 8.0)],
        per_cluster=250,
        noise=120,
        seed=seed,
    )
    csgs = CSGS(0.35, 5, 2)
    archive = []
    for batch in stream_batches(points, 300, 100):
        output = csgs.process_batch(batch)
        archive.extend(
            (sgs, cluster.size)
            for cluster, sgs in zip(output.clusters, output.summaries)
        )
    return archive


def _open(engine_class, store, workdir, name, archive, inverted, min_cells):
    spec = None if store == "memory" else (
        f"sqlite:{os.path.join(workdir, name)}.db?cache=2"
    )
    base = PatternBase(store=spec, inverted_levels=inverted)
    for sgs, size in archive:
        base.add(sgs, size)
    return base, engine_class(base, min_coarse_cells=min_cells)


def _observed(outcome):
    results, stats = outcome
    return (
        [
            (r.pattern.pattern_id, r.distance, tuple(r.alignment))
            for r in results
        ],
        dataclasses.asdict(stats),
    )


def _script(rng, archive, spares):
    """A seeded op list over one archive: matches in both metric modes
    at coarse levels 0-2, batches, LRU churn, invalidation, and remove +
    restore under a reused id with a different summary — once with the
    engine's removal listener lost, the case only the record check in
    the cache key can catch."""
    pool = [sgs for sgs, _ in archive] + list(spares)
    ids = list(range(len(archive)))

    def query():
        return MatchQuery(
            sgs=rng.choice(pool),
            threshold=rng.choice((0.3, 0.6, 0.95)),
            top_k=rng.choice((None, None, 3)),
            metric=rng.choice((PS, PS, PI)),
            coarse_level=rng.choice((0, 1, 1, 2)),
        )

    ops = []
    replacements = iter(spares)
    for round_no in range(3):
        ops.extend(("match", query()) for _ in range(5))
        ops.append(("many", [query() for _ in range(4)]))
        ops.append(("churn", rng.sample(ids, min(4, len(ids)))))
        spare = next(replacements, None)
        if spare is not None:
            ops.append(("replace", rng.choice(ids), spare, round_no == 1))
        ops.append(("invalidate", rng.choice(ids + [None])))
        ops.extend(("match", query()) for _ in range(3))
    return ops, [query() for _ in range(6)]


def _apply(op, base, engine):
    kind = op[0]
    if kind == "match":
        return _observed(engine.match(op[1]))
    if kind == "many":
        return [_observed(out) for out in engine.match_many(op[1])]
    if kind == "churn":
        return [len(base.get(pattern_id).sgs) for pattern_id in op[1]]
    if kind == "replace":
        _, pattern_id, sgs, lose_listener = op
        if lose_listener:
            base._removal_listeners = []
        assert base.remove(pattern_id)
        base.restore(ArchivedPattern(pattern_id, sgs, 10 * len(sgs)))
        base.subscribe(engine)
        return len(base)
    engine.invalidate(op[1])
    return None


def _sharded(base, engine, reference):
    """A serial two-shard engine over the same store's stubs."""
    sharded = ShardedMatchEngine(
        ShardedPatternBase.from_base(base, 2),
        min_coarse_cells=engine.min_coarse_cells,
    )
    if reference:
        for shard_engine in sharded.engines:
            shard_engine.__class__ = ReferenceLadderEngine
    return sharded


def _check_equivalent(store, archive, spares, seed, inverted, min_cells):
    rng = random.Random(seed)
    ops, closing = _script(rng, archive, spares)
    with tempfile.TemporaryDirectory() as workdir:
        base, engine = _open(
            MatchEngine, store, workdir, "new", archive, inverted, min_cells
        )
        ref_base, ref_engine = _open(
            ReferenceLadderEngine, store, workdir, "ref", archive, inverted,
            min_cells,
        )
        try:
            for step, op in enumerate(ops):
                assert _apply(op, base, engine) == _apply(
                    op, ref_base, ref_engine
                ), (step, op[0])
            sharded = _sharded(base, engine, reference=False)
            ref_sharded = _sharded(ref_base, ref_engine, reference=True)
            victim = rng.randrange(len(archive))
            for _ in range(2):
                for query in closing:
                    assert _observed(sharded.match(query)) == _observed(
                        ref_sharded.match(query)
                    )
                assert [
                    _observed(out) for out in sharded.match_many(closing)
                ] == [_observed(out) for out in ref_sharded.match_many(closing)]
                # Remove + restore through the sharded facade: a new
                # record under the old id, in whichever shard owns it.
                replacement = archive[victim - 1][0]
                for facade in (sharded.base, ref_sharded.base):
                    assert facade.remove(victim)
                    facade.restore(
                        ArchivedPattern(victim, replacement, 7)
                    )
        finally:
            base.close()
            ref_base.close()


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_record_keyed_cache_equals_identity_keyed_on_stream_archives(
    store, seed
):
    archive = _stream_archive(seed)
    spares = [sgs for sgs, _ in _stream_archive(seed + 10)[:3]]
    _check_equivalent(
        store, archive, spares, seed,
        inverted=(1,) if seed == 2 else None,
        min_cells=6 if seed == 3 else 1,
    )


@settings(max_examples=15, deadline=None)
@given(
    store=st.sampled_from(STORES),
    dims=st.integers(1, 3),
    data=st.data(),
    seed=st.integers(0, 2**16),
    inverted=st.sampled_from([None, (1,)]),
    min_cells=st.sampled_from([1, 2, 6]),
)
def test_record_keyed_cache_equals_identity_keyed_on_drawn_archives(
    store, dims, data, seed, inverted, min_cells
):
    drawn = data.draw(st.lists(summaries(dims), min_size=3, max_size=9))
    archive = [(sgs, 10 * len(sgs)) for sgs in drawn[:-2]]
    _check_equivalent(store, archive, drawn[-2:], seed, inverted, min_cells)


# ----------------------------------------------------------------------
# What the record key buys: counts, not timers
# ----------------------------------------------------------------------


def _sqlite_panel(tmp_path, cache):
    archive = _stream_archive(4)
    base = PatternBase(store=f"sqlite:{tmp_path / 'panel.db'}?cache={cache}")
    for sgs, size in archive:
        base.add(sgs, size)
    base.close()
    # Cold reopen: nothing hydrated, nothing cached.
    base = PatternBase(store=f"sqlite:{tmp_path / 'panel.db'}?cache={cache}")
    panel = [
        MatchQuery(sgs=sgs, threshold=0.6, metric=PS, coarse_level=1)
        for sgs, _ in archive[::2]
    ]
    return base, panel


def test_second_panel_pass_coarsens_no_pattern_and_hydrates_only_refined(
    tmp_path, monkeypatch
):
    base, panel = _sqlite_panel(tmp_path, cache=4)
    assert len(base) > 3 * base.store.cache_patterns
    engine = MatchEngine(base, min_coarse_cells=1)
    calls = []
    coarsen = engine_module.coarsen_sgs
    monkeypatch.setattr(
        engine_module,
        "coarsen_sgs",
        lambda sgs, factor: calls.append(1) or coarsen(sgs, factor),
    )
    first = [_observed(engine.match(query)) for query in panel]
    assert len(calls) > len(panel), "the first pass must build rungs"
    assert sum(stats["coarse_evaluated"] for _, stats in first) > 0

    del calls[:]
    before = base.store.stats["hydrations"]
    second = [_observed(engine.match(query)) for query in panel]
    assert second == first
    # One coarsening per query (its own rung), none for any pattern.
    assert len(calls) == len(panel)
    refined = sum(stats["refined"] for _, stats in second)
    assert base.store.stats["hydrations"] - before <= refined

    # Every build was recorded where a reopened archive will find it.
    for (pattern_id, _), (record, rungs) in engine._ladders.items():
        assert record.ladder_hint == len(rungs) == 1
    base.close()
    reopened = PatternBase(store=f"sqlite:{tmp_path / 'panel.db'}")
    hinted = {p.pattern_id for p in reopened.all_patterns() if p.ladder_hint}
    reopened.close()
    assert hinted == {pattern_id for pattern_id, _ in engine._ladders}


def test_cache_holds_rungs_of_records_never_a_stored_summary(tmp_path):
    base, panel = _sqlite_panel(tmp_path, cache=4)
    store = base.store
    engine = MatchEngine(base, min_coarse_cells=1)
    queries = panel + [
        MatchQuery(sgs=q.sgs, threshold=0.6, metric=PI, coarse_level=2)
        for q in panel[:4]
    ]
    for query in queries:
        engine.match(query)
        assert len(store._cache) <= store.cache_patterns
    assert engine.pattern_at_level(base.get(0), 0, canonical=False) is (
        base.get(0).sgs
    )
    assert engine._ladders
    assert engine.cached_ladder_levels() == sum(
        len(rungs) for _, rungs in engine._ladders.values()
    )
    for (pattern_id, _), (record, rungs) in engine._ladders.items():
        assert record is base.get(pattern_id)
        assert [rung.level for rung in rungs] == list(
            range(1, len(rungs) + 1)
        )
        for held in [record] + rungs:
            assert all(held is not sgs for sgs in store._cache.values())
    base.close()


@pytest.mark.parametrize("store", STORES)
def test_reused_id_never_answers_from_the_old_record(store, tmp_path):
    """Remove + restore under the same id makes a new record; the old
    record's rungs cannot answer for it even when the removal listener
    never fired."""
    archive = _stream_archive(5)
    spec = None if store == "memory" else f"sqlite:{tmp_path / 'r.db'}?cache=2"
    base = PatternBase(store=spec)
    for sgs, size in archive:
        base.add(sgs, size)
    engine = MatchEngine(base, min_coarse_cells=1)
    target = max(range(len(archive)), key=lambda i: len(archive[i][0]))
    other = min(range(len(archive)), key=lambda i: len(archive[i][0]))
    old = engine.pattern_at_level(base.get(target), 1, canonical=False)
    base._removal_listeners = []
    assert base.remove(target)
    assert (target, False) in engine._ladders  # the listener was lost
    base.restore(ArchivedPattern(target, archive[other][0], 1))
    new = engine.pattern_at_level(base.get(target), 1, canonical=False)
    assert new is not old
    assert set(new.cells) == set(
        engine_module.coarsen_sgs(archive[other][0], 3).cells
    )
    assert set(new.cells) != set(old.cells)
    base.close()
