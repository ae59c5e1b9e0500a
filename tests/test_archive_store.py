"""Unit tests for the ``PatternStore`` seam (memory + SQLite backends).

Storage is never semantics: both backends must answer identically, dump
identical bytes, and survive the same failure drills. The crash/torn-
input corpus lives in ``tests/test_archive_truncation.py``.
"""

import io
import math

import pytest

from tests.helpers import clustered_points, roundtrip_bytes, stream_batches
from tests.golden.workload import (
    MATCH_PATH,
    SHARDED_MATCH_PATH,
    render,
    run_match_trace,
    run_sharded_match_trace,
)
from repro.archive.pattern_base import ArchivedPattern, PatternBase
from repro.archive.persistence import load_pattern_base
from repro.archive.store import (
    BUSY_TIMEOUT_MS,
    DEFAULT_CACHE_PATTERNS,
    MemoryStore,
    SqliteStore,
    open_store,
    parse_store_spec,
)
from repro.core.csgs import CSGS
from repro.core.features import ClusterFeatures
from repro.retrieval import ShardedPatternBase
from repro.serving.service import MatchService, ServiceError


def _populated(seed=1, store=None, inverted=None):
    points = clustered_points(
        [(2.0, 2.0), (6.0, 5.0)], per_cluster=250, noise=100, seed=seed
    )
    base = PatternBase(store=store, inverted_levels=inverted)
    csgs = CSGS(0.35, 5, 2)
    last = None
    for batch in stream_batches(points, 300, 100):
        last = csgs.process_batch(batch)
        for cluster, sgs in zip(last.clusters, last.summaries):
            base.add(sgs, cluster.size)
    return base, last


# ----------------------------------------------------------------------
# Store specs
# ----------------------------------------------------------------------


def test_parse_store_spec_forms():
    assert parse_store_spec("memory") == ("memory", None, {})
    assert parse_store_spec("sqlite:/tmp/h.db") == (
        "sqlite", "/tmp/h.db", {},
    )
    assert parse_store_spec("sqlite:h.db?cache=7") == (
        "sqlite", "h.db", {"cache": 7},
    )


@pytest.mark.parametrize(
    "spec",
    [
        "",
        "bogus",
        "bogus:/x",
        "sqlite:",
        "sqlite:h.db?cache=zero",
        "sqlite:h.db?cache=0",
        "sqlite:h.db?warm=1",
    ],
)
def test_bad_store_specs_rejected(spec):
    with pytest.raises(ValueError):
        parse_store_spec(spec)


def test_open_store_backends(tmp_path):
    assert isinstance(open_store(None), MemoryStore)
    assert isinstance(open_store("memory"), MemoryStore)
    with open_store(f"sqlite:{tmp_path / 'h.db'}?cache=5") as store:
        assert isinstance(store, SqliteStore)
        assert store.cache_patterns == 5
    with open_store(f"sqlite:{tmp_path / 'h2.db'}") as store:
        assert store.cache_patterns == DEFAULT_CACHE_PATTERNS


def test_pattern_base_rejects_non_store_object():
    with pytest.raises(TypeError):
        PatternBase(store=object())


# ----------------------------------------------------------------------
# Backend parity
# ----------------------------------------------------------------------


def test_dump_bytes_identical_across_backends(tmp_path):
    memory, _ = _populated(seed=2, inverted=(1,))
    disk, _ = _populated(
        seed=2, store=f"sqlite:{tmp_path / 'parity.db'}", inverted=(1,)
    )
    assert roundtrip_bytes(disk) == roundtrip_bytes(memory)
    disk.close()


def test_dump_load_roundtrips_between_backends(tmp_path):
    memory, _ = _populated(seed=3, inverted=(1, 2))
    blob = roundtrip_bytes(memory)
    onto_disk = load_pattern_base(
        io.BytesIO(blob), store=f"sqlite:{tmp_path / 'import.db'}"
    )
    assert len(onto_disk) == len(memory)
    assert onto_disk.summary_bytes() == memory.summary_bytes()
    assert roundtrip_bytes(onto_disk) == blob
    onto_disk.close()
    back_in_memory = load_pattern_base(io.BytesIO(blob))
    assert roundtrip_bytes(back_in_memory) == blob


def test_golden_match_fixture_byte_identical_on_sqlite(tmp_path):
    trace = run_match_trace(store=f"sqlite:{tmp_path / 'golden.db'}")
    assert render(trace) == MATCH_PATH.read_text()


def test_golden_sharded_fixture_byte_identical_on_sqlite(tmp_path):
    trace = run_sharded_match_trace(
        store=f"sqlite:{tmp_path / 'golden-sharded.db'}"
    )
    assert render(trace) == SHARDED_MATCH_PATH.read_text()


# ----------------------------------------------------------------------
# Reopen, lazy hydration, write-through metadata
# ----------------------------------------------------------------------


def test_sqlite_reopen_restores_archive(tmp_path):
    spec = f"sqlite:{tmp_path / 'history.db'}"
    base, last = _populated(seed=4, store=spec, inverted=(1,))
    expected = {
        (p.pattern_id, p.full_size, p.features, p.mbr)
        for p in base.all_patterns()
    }
    blob = roundtrip_bytes(base)
    count = len(base)
    base.close()

    with PatternBase(store=spec) as reopened:
        assert len(reopened) == count
        assert {
            (p.pattern_id, p.full_size, p.features, p.mbr)
            for p in reopened.all_patterns()
        } == expected
        # The inverted index restores from the postings table alone.
        index = reopened.inverted_index()
        assert index is not None and index.covers(1)
        # Lazily-hydrated summaries serialize to the same bytes.
        assert roundtrip_bytes(reopened) == blob
        # The id allocator advances past everything on disk.
        fresh = reopened.add(last.summaries[0], 10)
        assert fresh.pattern_id == count and fresh.pattern_id not in {
            pid for pid, *_ in expected
        }


def test_sqlite_hydration_lru(tmp_path):
    spec = f"sqlite:{tmp_path / 'lru.db'}?cache=2"
    base, _ = _populated(seed=5, store=spec)
    store = base.store
    assert len(base) > 2
    assert store.cache_patterns == 2
    assert len(store._cache) == 2
    assert store.stats["evictions"] > 0

    evicted = next(
        p for p in base.all_patterns() if p.pattern_id not in store._cache
    )
    before = dict(store.stats)
    first = evicted.sgs
    assert store.stats["hydrations"] == before["hydrations"] + 1
    # While cached, repeated access returns the same object (no rebuild
    # and no extra disk read).
    assert evicted.sgs is first
    assert store.stats["cache_hits"] == before["cache_hits"] + 1
    base.close()


def test_sqlite_stub_identity_in_indices(tmp_path):
    """The indices hold the canonical stored stub itself, so identity-
    based removal keeps working on a disk-backed base."""
    base, _ = _populated(seed=6, store=f"sqlite:{tmp_path / 'id.db'}")
    for pattern in base.all_patterns():
        assert any(
            hit is pattern for hit in base.overlapping(pattern.mbr)
        )
    victim = next(iter(base.all_patterns()))
    assert base.remove(victim.pattern_id)
    assert all(
        hit is not victim for hit in base.overlapping(victim.mbr)
    )
    base.close()


def test_ladder_hint_writes_through(tmp_path):
    spec = f"sqlite:{tmp_path / 'hints.db'}"
    base, _ = _populated(seed=7, store=spec)
    pattern_id = min(p.pattern_id for p in base.all_patterns())
    base.get(pattern_id).ladder_hint = 3
    base.close()
    with PatternBase(store=spec) as reopened:
        assert reopened.get(pattern_id).ladder_hint == 3


def test_statements_wait_out_another_connections_write_lock(tmp_path):
    """A second process holding the write lock delays a statement, it
    does not fail it — not an archival commit, and not the ladder-hint
    ``UPDATE`` a coarse match issues from inside a read query."""
    import sqlite3
    import threading
    from time import perf_counter

    from repro.retrieval import MatchEngine, MatchQuery

    path = tmp_path / "busy.db"
    base, last = _populated(seed=10, store=f"sqlite:{path}")
    timeout = base.store._conn.execute("PRAGMA busy_timeout").fetchone()[0]
    assert timeout == BUSY_TIMEOUT_MS
    engine = MatchEngine(base, min_coarse_cells=1)
    query = MatchQuery(sgs=last.summaries[0], threshold=0.9, coarse_level=1)
    other = sqlite3.connect(
        str(path), isolation_level=None, check_same_thread=False
    )
    try:
        for statement in (
            lambda: base.add(last.summaries[0], 9),
            lambda: engine.match(query),
        ):
            other.execute("BEGIN IMMEDIATE")
            release = threading.Timer(0.2, other.execute, ("COMMIT",))
            release.start()
            try:
                asked = perf_counter()
                statement()
                waited = perf_counter() - asked
            finally:
                release.join(timeout=5)
            assert not release.is_alive()
            assert waited > 0.1, "the statement never met the lock"
    finally:
        other.close()
    assert any(p.ladder_hint for p in base.all_patterns())
    base.close()


def test_sqlite_removal_survives_reopen(tmp_path):
    spec = f"sqlite:{tmp_path / 'rm.db'}"
    base, _ = _populated(seed=8, store=spec, inverted=(1,))
    count = len(base)
    victim = min(p.pattern_id for p in base.all_patterns())
    assert base.remove(victim)
    assert not base.remove(victim)
    base.close()
    with PatternBase(store=spec) as reopened:
        assert len(reopened) == count - 1
        assert victim not in reopened
        index = reopened.inverted_index()
        assert index is not None and victim not in index


def test_store_describe_telemetry(tmp_path):
    base, _ = _populated(
        seed=9, store=f"sqlite:{tmp_path / 'tele.db'}", inverted=(1,)
    )
    info = base.store_info()
    assert info["backend"] == "sqlite"
    assert info["durable"] is True
    assert info["patterns"] == len(base)
    assert info["inverted_levels"] == [1]
    base.close()

    memory, _ = _populated(seed=9)
    info = memory.store_info()
    assert info == {
        "backend": "memory", "durable": False, "patterns": len(memory),
    }


# ----------------------------------------------------------------------
# Exception-safe restore (the half-restore fix), both backends
# ----------------------------------------------------------------------


def _nan_pattern(sgs):
    """A pattern the feature grid must reject (NaN bins)."""
    pattern = ArchivedPattern(999, sgs, 10)
    pattern.features = ClusterFeatures(
        volume=math.nan,
        core_count=1.0,
        avg_density=1.0,
        avg_connectivity=1.0,
    )
    return pattern


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_failed_restore_unwinds_everything(tmp_path, backend):
    store = (
        None if backend == "memory"
        else f"sqlite:{tmp_path / 'unwind.db'}"
    )
    base, last = _populated(seed=10, store=store, inverted=(1,))
    count = len(base)
    bad = _nan_pattern(last.summaries[0])
    hits_before = len(base.overlapping(bad.mbr))

    with pytest.raises(ValueError):
        base.restore(bad)

    # Nothing partial survives: not the store, not either feature
    # index, not the inverted index.
    assert len(base) == count
    assert bad.pattern_id not in base
    assert len(base.overlapping(bad.mbr)) == hits_before
    assert bad.pattern_id not in base.inverted_index()
    # The same id restores cleanly afterwards.
    good = base.restore(ArchivedPattern(999, last.summaries[0], 10))
    assert good.pattern_id == 999 and 999 in base
    base.close()


def test_failed_restore_leaves_sqlite_file_clean(tmp_path):
    spec = f"sqlite:{tmp_path / 'unwind2.db'}"
    base, last = _populated(seed=11, store=spec)
    count = len(base)
    with pytest.raises(ValueError):
        base.restore(_nan_pattern(last.summaries[0]))
    base.close()
    with PatternBase(store=spec) as reopened:
        assert len(reopened) == count
        assert 999 not in reopened


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_commit_failure_unwinds_indices(tmp_path, backend, monkeypatch):
    """A store that refuses the final commit leaves the in-memory
    indices exactly as they were (the crash-during-ack drill)."""
    store = (
        None if backend == "memory"
        else f"sqlite:{tmp_path / 'ack.db'}"
    )
    base, last = _populated(seed=12, store=store, inverted=(1,))
    count = len(base)

    def refuse(*args, **kwargs):
        raise RuntimeError("disk full")

    monkeypatch.setattr(base.store, "commit", refuse)
    with pytest.raises(RuntimeError):
        base.add(last.summaries[0], 10)
    monkeypatch.undo()

    assert len(base) == count
    assert count not in base.inverted_index()
    # The id was not burned: the next add reuses it and succeeds.
    fresh = base.add(last.summaries[0], 10)
    assert fresh.pattern_id == count
    base.close()


# ----------------------------------------------------------------------
# Sharded serving over a durable origin store
# ----------------------------------------------------------------------


def test_sharded_ingest_writes_through_to_origin(tmp_path):
    spec = f"sqlite:{tmp_path / 'sharded.db'}"
    base, last = _populated(seed=13, store=spec, inverted=(1,))
    count = len(base)
    sharded = ShardedPatternBase.from_base(base, 2, "window")
    assert sharded.store is base.store
    assert sharded.store_info()["backend"] == "sqlite"

    fresh = sharded.add(last.summaries[0], 10)
    assert fresh.pattern_id in base.store
    assert sharded.remove(fresh.pattern_id)
    assert fresh.pattern_id not in base.store
    sharded.add(last.summaries[1 % len(last.summaries)], 12)
    sharded.close()

    with PatternBase(store=spec) as reopened:
        assert len(reopened) == count + 1


def test_service_cold_starts_from_store(tmp_path):
    spec = f"sqlite:{tmp_path / 'svc.db'}"
    base, _ = _populated(seed=14, store=spec, inverted=(1,))
    count = len(base)
    base.close()
    with MatchService.from_archive(store=spec, shards=2) as service:
        stats = service.stats()
        assert stats["archive_size"] == count
        assert stats["store"]["backend"] == "sqlite"
        assert stats["store"]["durable"] is True


def test_service_needs_archive_or_store():
    with pytest.raises(ServiceError):
        MatchService.from_archive()


def test_service_rejects_archive_into_populated_store(tmp_path):
    spec = f"sqlite:{tmp_path / 'full.db'}"
    base, _ = _populated(seed=15, store=spec)
    dump = tmp_path / "dump.sgsa"
    from repro.archive.persistence import dump_pattern_base

    dump_pattern_base(base, dump)
    base.close()
    with pytest.raises(ServiceError):
        MatchService.from_archive(path=str(dump), store=spec)
