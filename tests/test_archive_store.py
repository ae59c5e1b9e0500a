"""Unit tests for the pattern store: one SQLite schema, two specs.

Storage is never semantics: the in-memory database (``memory``) and a
file (``sqlite:PATH``) must answer identically, hold identical bytes,
and survive the same failure drills. The crash drills — a dump torn
mid-write, an overwritten dump, a SIGKILL during archival — and the
refusal of unreadable files are the persistence tests.
"""

import math
import os
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tests.helpers import (
    clustered_points,
    reloaded,
    roundtrip_bytes,
    stream_batches,
)
from tests.golden.workload import (
    MATCH_PATH,
    SHARDED_MATCH_PATH,
    render,
    run_match_trace,
    run_sharded_match_trace,
)
from repro.archive.pattern_base import ArchivedPattern, PatternBase
from repro.archive.persistence import dump_pattern_base, load_pattern_base
from repro.archive.store import (
    BUSY_TIMEOUT_MS,
    DEFAULT_CACHE_PATTERNS,
    SqliteStore,
    open_store,
    parse_store_spec,
)
from repro.cli import main
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
        "sqlite::memory:",
    ],
)
def test_bad_store_specs_rejected(spec):
    with pytest.raises(ValueError):
        parse_store_spec(spec)


def test_open_store_backends(tmp_path):
    for spec in (None, "memory"):
        with open_store(spec) as store:
            assert isinstance(store, SqliteStore)
            assert store.backend == "memory" and not store.durable
            assert store.cache_patterns is None
    with open_store(f"sqlite:{tmp_path / 'h.db'}?cache=5") as store:
        assert store.backend == "sqlite" and store.durable
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
    """A dump of an in-memory base is a file ``sqlite:`` serves, and a
    file-backed base dumps and loads back into memory."""
    memory, _ = _populated(seed=3, inverted=(1, 2))
    blob = roundtrip_bytes(memory)
    dump = tmp_path / "import.db"
    dump_pattern_base(memory, dump)
    onto_disk = PatternBase(store=f"sqlite:{dump}")
    assert len(onto_disk) == len(memory)
    assert onto_disk.summary_bytes() == memory.summary_bytes()
    assert roundtrip_bytes(onto_disk) == blob
    assert roundtrip_bytes(reloaded(onto_disk)) == blob
    onto_disk.close()


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


def _answers(engine, query):
    results, _ = engine.match(query)
    return [
        (r.pattern.pattern_id, r.distance, tuple(r.alignment))
        for r in results
    ]


def test_archive_in_the_older_schema_opens_answers_and_ingests(tmp_path):
    """A file whose patterns table still has the ``ladder_hint`` column
    (the cache-warmth hint matching once wrote) opens with the column
    dropped, answers as the archive it was copied from, and keeps an
    ingest across a reopen."""
    import sqlite3

    from repro.archive import store as store_module
    from repro.matching.metric import DistanceMetricSpec
    from repro.retrieval import MatchEngine, MatchQuery

    source = tmp_path / "source.db"
    base, last = _populated(seed=7, store=f"sqlite:{source}", inverted=(1,))
    queries = [
        MatchQuery(
            sgs=last.summaries[0], threshold=0.9, metric=metric,
            coarse_level=level,
        )
        for metric in (
            DistanceMetricSpec(), DistanceMetricSpec(position_sensitive=True)
        )
        for level in (0, 1)
    ]
    engine = MatchEngine(base, min_coarse_cells=1)
    expected = [_answers(engine, query) for query in queries]
    assert all(expected)
    count = len(base)
    base.close()

    older = tmp_path / "older.db"
    column = "    full_size        INTEGER NOT NULL,\n"
    assert column in store_module._SCHEMA
    conn = sqlite3.connect(str(older))
    conn.executescript(
        store_module._SCHEMA.replace(
            column, column + "    ladder_hint      INTEGER NOT NULL,\n"
        )
    )
    conn.execute("ATTACH DATABASE ? AS source", (str(source),))
    for table in ("meta", "feature_bins", "postings"):
        conn.execute(f"INSERT INTO {table} SELECT * FROM source.{table}")
    conn.execute(
        "INSERT INTO patterns SELECT pattern_id, seq, window_index,"
        " full_size, 3, volume, core_count, avg_density, avg_connectivity,"
        " mbr_lows, mbr_highs, summary_bytes, blob FROM source.patterns"
    )
    conn.commit()
    conn.close()

    spec = f"sqlite:{older}"
    with PatternBase(store=spec) as reopened:
        columns = reopened.store._conn.execute("PRAGMA table_info(patterns)")
        assert "ladder_hint" not in {row[1] for row in columns}
        engine = MatchEngine(reopened, min_coarse_cells=1)
        assert [_answers(engine, query) for query in queries] == expected
        fresh = reopened.add(last.summaries[0], 9)
    with PatternBase(store=spec) as reopened:
        assert len(reopened) == count + 1
        assert reopened.get(fresh.pattern_id).full_size == 9
        assert set(reopened.get(fresh.pattern_id).sgs.cells) == set(
            last.summaries[0].cells
        )


def test_statements_wait_out_another_connections_write_lock(tmp_path):
    """A second process holding the write lock delays an archival
    commit, it does not fail it. A match never meets that lock: a
    position-sensitive coarse match over a cold archive answers at
    once, and answers what it answers with the file unlocked."""
    import sqlite3
    import threading
    from time import perf_counter

    from repro.matching.metric import DistanceMetricSpec
    from repro.retrieval import MatchEngine, MatchQuery

    path = tmp_path / "busy.db"
    base, last = _populated(seed=10, store=f"sqlite:{path}")
    timeout = base.store._conn.execute("PRAGMA busy_timeout").fetchone()[0]
    assert timeout == BUSY_TIMEOUT_MS
    other = sqlite3.connect(
        str(path), isolation_level=None, check_same_thread=False
    )
    try:
        other.execute("BEGIN IMMEDIATE")
        release = threading.Timer(0.2, other.execute, ("COMMIT",))
        release.start()
        try:
            asked = perf_counter()
            base.add(last.summaries[0], 9)
            waited = perf_counter() - asked
        finally:
            release.join(timeout=5)
        assert not release.is_alive()
        assert waited > 0.1, "the archival commit never met the lock"
        base.close()

        # Cold, with a two-summary LRU: the match hydrates from disk.
        base = PatternBase(store=f"sqlite:{path}?cache=2")
        query = MatchQuery(
            sgs=last.summaries[0],
            threshold=0.9,
            metric=DistanceMetricSpec(position_sensitive=True),
            coarse_level=1,
        )
        other.execute("BEGIN IMMEDIATE")
        try:
            asked = perf_counter()
            locked = _answers(MatchEngine(base, min_coarse_cells=1), query)
            answered = perf_counter() - asked
        finally:
            other.execute("ROLLBACK")
        assert answered < 1.0, "the match waited on the write lock"
        assert locked
        assert locked == _answers(
            MatchEngine(base, min_coarse_cells=1), query
        )
    finally:
        other.close()
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
    assert info["backend"] == "memory"
    assert info["durable"] is False
    assert info["patterns"] == info["cached"] == len(memory)
    assert info["cache_patterns"] is None


def test_only_a_file_is_durable(tmp_path):
    """The in-memory database survives nothing: it never reports
    durability, and a sharded base never adopts it as the origin an
    acknowledged ingest commits to."""
    memory, _ = _populated(seed=17)
    assert memory.store_info()["durable"] is False
    sharded = ShardedPatternBase.from_base(memory, 2, "window")
    assert sharded.store is None
    assert sharded.store_info()["durable"] is False
    disk, _ = _populated(seed=17, store=f"sqlite:{tmp_path / 'd.db'}")
    assert disk.store_info()["durable"] is True
    assert ShardedPatternBase.from_base(disk, 2, "window").store is disk.store
    disk.close()


def test_matching_on_the_default_store_never_evicts():
    """The in-memory store keeps every summary it holds: matching over
    more patterns than the on-disk LRU holds hydrates and evicts
    nothing."""
    from repro.retrieval import MatchEngine

    base, last = _populated(seed=18)
    summaries = [p.sgs for p in base.all_patterns()]
    next_id = len(base)
    while len(base) <= DEFAULT_CACHE_PATTERNS + 20:
        base.restore(
            ArchivedPattern(next_id, summaries[next_id % len(summaries)], 9)
        )
        next_id += 1
    _, stats = MatchEngine(base).match_sgs(last.summaries[0], 1.0)
    assert stats.refined > DEFAULT_CACHE_PATTERNS
    info = base.store_info()
    assert info["evictions"] == 0 and info["hydrations"] == 0
    assert info["cached"] == len(base)


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


# ----------------------------------------------------------------------
# Crash drills: dumps are atomic, acknowledged patterns survive a kill
# ----------------------------------------------------------------------


def test_interrupted_dump_leaves_previous_archive_intact(
    tmp_path, monkeypatch
):
    base, _ = _populated(seed=1)
    path = tmp_path / "history.db"
    dump_pattern_base(base, path)
    good = path.read_bytes()

    real = SqliteStore.backup

    def torn(self, target):
        real(self, target)
        with open(target, "r+b") as handle:
            handle.truncate(os.path.getsize(target) // 2)
        raise RuntimeError("disk died mid-dump")

    monkeypatch.setattr(SqliteStore, "backup", torn)
    with pytest.raises(RuntimeError):
        dump_pattern_base(_populated(seed=2)[0], path)
    monkeypatch.undo()

    # The crash tore nothing: the old archive is byte-identical and
    # still loads, and no temp file litters the directory.
    assert path.read_bytes() == good
    assert len(load_pattern_base(path)) == len(base)
    assert [p.name for p in tmp_path.iterdir()] == ["history.db"]


def test_dump_overwrite_is_atomic_replacement(tmp_path):
    path = tmp_path / "history.db"
    dump_pattern_base(_populated(seed=3)[0], path)
    second, _ = _populated(seed=4)
    written = dump_pattern_base(second, path)
    assert written == path.stat().st_size
    assert roundtrip_bytes(load_pattern_base(path)) == roundtrip_bytes(second)
    assert [p.name for p in tmp_path.iterdir()] == ["history.db"]


_INGEST_CHILD = """\
import os
import sys

from tests.helpers import clustered_points, stream_batches
from repro.archive.pattern_base import PatternBase
from repro.core.csgs import CSGS

db_path, acked_path = sys.argv[1], sys.argv[2]
points = clustered_points(
    [(2.0, 2.0), (6.0, 5.0)], per_cluster=250, noise=100, seed=21
)
base = PatternBase(store="sqlite:" + db_path, inverted_levels=(1,))
csgs = CSGS(0.35, 5, 2)
log = open(acked_path, "a")
while True:
    for batch in stream_batches(points, 300, 100):
        output = csgs.process_batch(batch)
        for cluster, sgs in zip(output.clusters, output.summaries):
            pattern = base.add(sgs, cluster.size)
            # The ack: only written after add() returned, i.e. after
            # the store reported the pattern durably committed.
            log.write("%d\\n" % pattern.pattern_id)
            log.flush()
            os.fsync(log.fileno())
"""


def test_sigkill_during_archival_keeps_acknowledged_patterns(tmp_path):
    root = Path(__file__).resolve().parents[1]
    script = tmp_path / "ingest_child.py"
    script.write_text(_INGEST_CHILD)
    db_path = tmp_path / "killed.db"
    acked_path = tmp_path / "acked.txt"

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part
        for part in (
            str(root), str(root / "src"), env.get("PYTHONPATH", "")
        )
        if part
    )
    proc = subprocess.Popen(
        [sys.executable, str(script), str(db_path), str(acked_path)],
        cwd=str(root),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise AssertionError(
                    "ingest child exited early:\n"
                    + proc.stderr.read().decode()
                )
            if (
                acked_path.exists()
                and acked_path.read_text().count("\n") >= 6
            ):
                break
            time.sleep(0.05)
        else:
            raise AssertionError("ingest child never acknowledged")
    finally:
        proc.kill()
        proc.wait()

    acked = [
        int(line)
        for line in acked_path.read_text().splitlines()
        if line.strip().isdigit()
    ]
    assert len(acked) >= 6
    with PatternBase(store=f"sqlite:{db_path}") as reopened:
        missing = [pid for pid in acked if pid not in reopened]
        assert not missing, f"acknowledged patterns lost: {missing}"


# ----------------------------------------------------------------------
# Unreadable archive files are refused cleanly
# ----------------------------------------------------------------------


def _closed(conn) -> bool:
    try:
        conn.execute("SELECT 1")
    except sqlite3.ProgrammingError:
        return True
    return False


def test_unreadable_archive_file_is_refused_cleanly(
    tmp_path, monkeypatch, capsys
):
    """Garbage, a real archive cut short, and a dump of the retired
    binary format: opening any of them is a ``ValueError`` naming the
    file with the connection closed, a ``ServiceError`` from the
    service, and one line plus exit 1 from the CLI — never a raw
    ``sqlite3`` error."""
    base, _ = _populated(seed=16, inverted=(1,))
    archive = tmp_path / "archive.db"
    dump_pattern_base(base, archive)
    blob = archive.read_bytes()
    page = 4096
    assert len(blob) > 4 * page and len(blob) % page == 0
    bad = {
        "garbage.db": b"\x00\xffnot a pattern archive" * 400,
        "legacy.sgsa": roundtrip_bytes(base),
    }
    for cut in (60, page, page + 100, len(blob) // 2 + 7, len(blob) - page,
                len(blob) - 1):
        bad[f"cut-{cut}.db"] = blob[:cut]

    opened = []
    connect = sqlite3.connect

    def recording_connect(*args, **kwargs):
        opened.append(connect(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(sqlite3, "connect", recording_connect)
    for name, content in bad.items():
        path = tmp_path / name
        path.write_bytes(content)
        spec = f"sqlite:{path}"
        opened.clear()
        with pytest.raises(ValueError, match=name):
            PatternBase(store=spec)
        assert opened and all(_closed(conn) for conn in opened)
        with pytest.raises(ServiceError, match=name):
            MatchService.from_archive(store=spec)
        with pytest.raises(ValueError, match=name):
            load_pattern_base(path)
        assert main(["match", "--store", spec, "--pattern", "0"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and name in err, err
        assert path.read_bytes() == content
