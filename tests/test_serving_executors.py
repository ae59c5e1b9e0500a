"""The deployment seam's laws: mode is placement, never semantics.

Three suites over the Figure-7 ``stt_small`` archive (the same
persisted format-v3 workload the golden fixtures pin):

* **Executor parity** — ``process`` ≡ ``serial`` ≡ the exhaustive
  scan, byte for byte (same pattern ids, same float
  distances, same alignments, same merged stats), across a
  threshold/top-k × shard-key × coarse-level panel.
* **Fault tolerance** — a shard worker SIGKILLed with a batch in
  flight is respawned from its hydration dump, post-dump ingests are
  replayed from the journal, and the merged answers are *still*
  identical to the serial path's.
* **Lifecycle** — the serial default (no thread is started),
  idempotent ``close()``, context managers, closed-executor errors,
  and ``build_executor`` validation.
"""

import os
import signal
import threading
import time

import pytest

from tests.golden.workload import build_sharded_v3_archive
from tests.test_retrieval_engine import _as_pairs, exhaustive_scan
from repro.matching.metric import DistanceMetricSpec
from repro.retrieval import (
    MatchQuery,
    ShardedMatchEngine,
    ShardedPatternBase,
)
from repro.serving import (
    MODES,
    SerialExecutor,
    build_executor,
    validate_mode,
)


@pytest.fixture(scope="module")
def flat_base():
    return build_sharded_v3_archive()


def _query_panel(base):
    """threshold/top-k × metric × coarse level, over two query SGS."""
    pattern_ids = sorted(p.pattern_id for p in base.all_patterns())
    query_ids = [pattern_ids[0], pattern_ids[len(pattern_ids) // 2]]
    panel = []
    for query_id in query_ids:
        sgs = base.get(query_id).sgs
        for spec in (
            DistanceMetricSpec(),
            DistanceMetricSpec(position_sensitive=True),
        ):
            for coarse in (0, 1):
                for threshold, top_k in ((0.2, None), (0.5, 5)):
                    panel.append(
                        MatchQuery(
                            sgs=sgs,
                            threshold=threshold,
                            top_k=top_k,
                            metric=spec,
                            coarse_level=coarse,
                        )
                    )
    return panel


def _exact(results):
    """The full observable answer: id, exact float distance, alignment."""
    return [
        (r.pattern.pattern_id, r.distance, tuple(r.alignment))
        for r in results
    ]


# ----------------------------------------------------------------------
# Executor parity: process ≡ serial ≡ exhaustive
# ----------------------------------------------------------------------


@pytest.mark.parametrize("key", ("window", "feature"))
def test_modes_agree_bytewise_and_match_exhaustive(flat_base, key):
    sharded = ShardedPatternBase.from_base(flat_base, 4, key)
    panel = _query_panel(flat_base)
    answers = {}
    for mode in MODES:
        with ShardedMatchEngine(sharded, mode=mode) as engine:
            assert engine.mode == mode
            batched = engine.match_many(panel)
            # match() must agree with its own match_many() entry.
            solo_results, solo_stats = engine.match(panel[0])
            assert _exact(solo_results) == _exact(batched[0][0])
            assert solo_stats.plan["entry"] == "sharded"
            answers[mode] = batched
    for qi, query in enumerate(panel):
        serial_results, serial_stats = answers["serial"][qi]
        mode_results, mode_stats = answers["process"][qi]
        assert _exact(mode_results) == _exact(serial_results), (
            f"process diverged from serial on query {qi} ({key})"
        )
        assert mode_stats.archive_size == serial_stats.archive_size
        assert mode_stats.gathered == serial_stats.gathered
        assert mode_stats.refined == serial_stats.refined
        assert mode_stats.matches == serial_stats.matches
        assert mode_stats.plan["entries"] == serial_stats.plan["entries"]
    for qi, query in enumerate(panel):
        if query.top_k is None:
            assert (
                _as_pairs(answers["serial"][qi][0])
                == exhaustive_scan(flat_base, query)
            ), f"serial diverged from the exhaustive scan on query {qi}"


def test_parallel_flag_reflects_mode(flat_base):
    sharded = ShardedPatternBase.from_base(flat_base, 3, "window")
    query = _query_panel(flat_base)[0]
    for mode, parallel in (("serial", False), ("process", True)):
        with ShardedMatchEngine(sharded, mode=mode) as engine:
            assert engine.parallel is parallel
            _, stats = engine.match(query)
            assert stats.plan["parallel"] is parallel


# ----------------------------------------------------------------------
# Fault tolerance: kill a worker, answers stay identical
# ----------------------------------------------------------------------


def test_killed_worker_restarts_and_answers_stay_correct(flat_base):
    sharded = ShardedPatternBase.from_base(flat_base, 4, "window")
    panel = _query_panel(flat_base)[:6]
    with ShardedMatchEngine(sharded, mode="process") as engine:
        executor = engine.executor
        # A pattern archived *after* worker hydration lives only in the
        # ingest journal — the respawn must replay it.
        extra_sgs = flat_base.get(
            sorted(p.pattern_id for p in flat_base.all_patterns())[0]
        ).sgs
        extra = engine.ingest(extra_sgs, 55)
        # The serial oracle shares the live base, so it already sees
        # the ingest the process workers only know via their replicas.
        with ShardedMatchEngine(sharded, mode="serial") as oracle:
            expected = [
                _exact(results) for results, _ in oracle.match_many(panel)
            ]
        probe = MatchQuery(sgs=extra_sgs, threshold=0.0, metric=engine.spec)
        before = {pid for pid, _, _ in _exact(engine.match(probe)[0])}
        assert extra.pattern_id in before
        # SIGKILL the owning worker: the next batch finds it dead with
        # tasks in flight, respawns it from the dump, replays the
        # journal, and resubmits.
        victim = sharded.shard_index_of(extra.pattern_id)
        os.kill(executor.worker_pids()[victim], signal.SIGKILL)
        time.sleep(0.05)
        batched = engine.match_many(panel)
        assert executor.restarts >= 1, "kill did not trigger a restart"
        for qi in range(len(panel)):
            assert _exact(batched[qi][0]) == expected[qi], (
                f"answers diverged after worker restart (query {qi})"
            )
        # The journal replay preserved the post-dump ingest too (the
        # oracle above predates it, so probe directly).
        after = {pid for pid, _, _ in _exact(engine.match(probe)[0])}
        assert extra.pattern_id in after


def test_sigkill_during_ingest_recovers_without_double_apply(flat_base):
    """The crash-recovery regression: an ingest in flight when its
    worker dies must apply exactly once. The journal entry used to be
    appended *before* submission, so the respawn replayed it and the
    resubmission applied it again — the worker's duplicate-id error
    then killed recovery with a spurious RuntimeError."""
    sharded = ShardedPatternBase.from_base(flat_base, 2, "window")
    sgs = flat_base.get(
        sorted(p.pattern_id for p in flat_base.all_patterns())[0]
    ).sgs
    with ShardedMatchEngine(sharded, mode="process") as engine:
        executor = engine.executor
        # A healthy ingest first, so the respawn has a journal to
        # replay alongside the interrupted entry.
        first = engine.ingest(sgs, 11)
        victim = sharded.shard_index_of(first.pattern_id)
        # Death discovered at submit time: the worker is already gone
        # when the next ingest for its shard arrives.
        os.kill(executor.worker_pids()[victim], signal.SIGKILL)
        time.sleep(0.05)
        second = engine.ingest(sgs, 12)  # raised RuntimeError pre-fix
        assert executor.restarts == 1
        # Death mid-task: the worker picks up the ingest, then dies
        # while it is in flight; the respawn replays both journaled
        # entries and the interrupted one is resubmitted once.
        executor.inject_crash(victim, 0, delay=0.1)
        third = engine.ingest(sgs, 13)
        assert executor.restarts == 2
        probe = MatchQuery(sgs=sgs, threshold=0.0, metric=engine.spec)
        matched = {pid for pid, _, _ in _exact(engine.match(probe)[0])}
        assert {
            first.pattern_id, second.pattern_id, third.pattern_id
        } <= matched
        # The worker replicas agree with the live base exactly.
        with ShardedMatchEngine(sharded, mode="serial") as oracle:
            assert _exact(engine.match(probe)[0]) == _exact(
                oracle.match(probe)[0]
            )


def test_worker_crash_budget_is_bounded(flat_base):
    sharded = ShardedPatternBase.from_base(flat_base, 2, "window")
    query = _query_panel(flat_base)[0]
    with ShardedMatchEngine(sharded, mode="process") as engine:
        executor = engine.executor
        executor.restart_limit = 1
        engine.match(query)  # healthy round first
        os.kill(executor.worker_pids()[0], signal.SIGKILL)
        # Restarted workers answer correctly again within the budget.
        results, _ = engine.match(query)
        assert executor.restarts == 1
        assert _exact(results)


# ----------------------------------------------------------------------
# Replicated read shards: round-robin routing, failover on death
# ----------------------------------------------------------------------


def test_replicated_executor_answers_stay_byte_identical(flat_base):
    """Replication is placement, never semantics: N replicas per shard
    answer exactly what the serial single-copy engine answers, on
    every round of the round-robin rotation."""
    sharded = ShardedPatternBase.from_base(flat_base, 2, "window")
    panel = _query_panel(flat_base)[:4]
    with ShardedMatchEngine(sharded, mode="serial") as oracle:
        expected = [_exact(r) for r, _ in oracle.match_many(panel)]
    with ShardedMatchEngine(sharded, mode="process", replicas=2) as engine:
        executor = engine.executor
        assert executor.replica_count == 2
        assert executor.replica_liveness() == [[True, True], [True, True]]
        # Three rounds cycle every replica through the read path.
        for _ in range(3):
            batched = engine.match_many(panel)
            assert [_exact(r) for r, _ in batched] == expected
        solo, _ = engine.match(panel[0])
        assert _exact(solo) == expected[0]
        assert executor.failovers == 0
        assert executor.restarts == 0


def test_failover_kill_each_replica_in_turn(flat_base):
    """Kill every replica of every shard, one per batch: each death is
    discovered with the batch task in flight, the task completes on
    the live sibling (no respawn wait on the hot path), the dead
    worker respawns in the background, and the merged answers never
    change."""
    sharded = ShardedPatternBase.from_base(flat_base, 2, "window")
    panel = _query_panel(flat_base)[:4]
    with ShardedMatchEngine(sharded, mode="serial") as oracle:
        expected = [_exact(r) for r, _ in oracle.match_many(panel)]
    with ShardedMatchEngine(sharded, mode="process", replicas=2) as engine:
        executor = engine.executor
        kills = 0
        for shard in range(2):
            for replica in range(2):
                executor.inject_crash(shard, replica, delay=0.1)
                kills += 1
                batched = engine.match_many(panel)
                assert [_exact(r) for r, _ in batched] == expected, (
                    f"answers diverged after killing shard {shard} "
                    f"replica {replica}"
                )
                assert executor.failovers == kills, (
                    "the in-flight task did not fail over to a sibling"
                )
        assert executor.restarts == kills
        # Every killed worker came back: a healthy rotation sees only
        # live replicas.
        assert executor.replica_liveness() == [[True, True], [True, True]]


def test_failover_all_replicas_of_one_shard_killed(flat_base):
    """When every replica of a shard dies mid-batch there is no
    sibling to fail over to — the read falls back to respawn-and-wait
    and the answers are still byte-identical."""
    sharded = ShardedPatternBase.from_base(flat_base, 2, "window")
    panel = _query_panel(flat_base)[:4]
    with ShardedMatchEngine(sharded, mode="serial") as oracle:
        expected = [_exact(r) for r, _ in oracle.match_many(panel)]
    with ShardedMatchEngine(sharded, mode="process", replicas=2) as engine:
        executor = engine.executor
        executor.inject_crash(0, 0, delay=0.08)
        executor.inject_crash(0, 1, delay=0.08)
        batched = engine.match_many(panel)
        assert [_exact(r) for r, _ in batched] == expected
        assert executor.restarts >= 1
        # The next healthy batch repairs whatever is still down.
        batched = engine.match_many(panel)
        assert [_exact(r) for r, _ in batched] == expected
        assert executor.replica_liveness()[0] == [True, True]
        assert executor.restarts >= 2


def test_failover_retry_is_bounded(flat_base):
    """A task may not chase dying workers forever: once its retries
    exceed restart_limit the executor gives up loudly."""
    sharded = ShardedPatternBase.from_base(flat_base, 2, "window")
    query = _query_panel(flat_base)[0]
    with ShardedMatchEngine(sharded, mode="process", replicas=2) as engine:
        executor = engine.executor
        executor.restart_limit = 0
        executor.inject_crash(0, 0, delay=0.05)
        executor.inject_crash(0, 1, delay=0.05)
        with pytest.raises(RuntimeError, match="giving up"):
            engine.match(query)


def test_build_executor_replicas_validation(flat_base):
    sharded = ShardedPatternBase.from_base(flat_base, 2, "window")
    with ShardedMatchEngine(sharded, mode="serial") as donor:
        engines = donor.engines
        with pytest.raises(ValueError):
            build_executor("serial", engines, replicas=2)
        with pytest.raises(ValueError):
            build_executor(None, engines, replicas=0)
    # Asking for replicas without a mode means process workers.
    with ShardedMatchEngine(sharded, replicas=2) as engine:
        assert engine.mode == "process"
        assert engine.executor.replica_count == 2
        assert engine.replicas == 2


# ----------------------------------------------------------------------
# Lifecycle: the serial default, close semantics, validation
# ----------------------------------------------------------------------


def test_default_mode_is_serial_and_starts_no_thread(flat_base):
    """Without ``mode`` a multi-shard engine runs its shards serially in
    the calling thread (the default used to be a thread pool that ran at
    0.98x of serial under the GIL)."""
    sharded = ShardedPatternBase.from_base(flat_base, 4, "window")
    panel = _query_panel(flat_base)[:2]
    with ShardedMatchEngine(sharded) as engine:
        assert engine.mode == "serial"
        assert engine.parallel is False
        threads_before = threading.active_count()
        batched = engine.match_many(panel)
        assert threading.active_count() == threads_before
        assert all(
            stats.plan["parallel"] is False for _, stats in batched
        )


def test_closed_executor_refuses_work(flat_base):
    sharded = ShardedPatternBase.from_base(flat_base, 2, "window")
    query = _query_panel(flat_base)[0]
    engine = ShardedMatchEngine(sharded, mode="serial")
    engine.match(query)
    engine.close()
    engine.close()  # idempotent
    assert engine.executor.closed
    with pytest.raises(RuntimeError):
        engine.match(query)
    serial = SerialExecutor(engines=[])
    with serial:
        pass
    with pytest.raises(RuntimeError):
        serial.match(query)


def test_injected_executor_is_not_closed_by_the_facade(flat_base):
    sharded = ShardedPatternBase.from_base(flat_base, 2, "window")
    query = _query_panel(flat_base)[0]
    with ShardedMatchEngine(sharded, mode="serial") as donor:
        shared = donor.executor
        facade = ShardedMatchEngine(sharded, executor=shared)
        facade.match(query)
        facade.close()
        assert not shared.closed
        donor.match(query)  # still serving


def test_build_executor_validation(flat_base):
    with pytest.raises(ValueError):
        validate_mode("bogus")
    with pytest.raises(ValueError):
        build_executor("carrier-pigeon", engines=[])
    with pytest.raises(ValueError):
        build_executor("process", engines=[])  # no base / worker config
    sharded = ShardedPatternBase.from_base(flat_base, 2, "window")
    engines = ShardedMatchEngine(sharded, mode="serial").engines
    assert build_executor(None, engines).mode == "serial"
    assert build_executor(None, engines[:1]).mode == "serial"
    with pytest.raises(ValueError, match="unknown serving mode"):
        build_executor("thread", engines)
