"""Deployment-mode ablation: serial vs process shard serving.

Serves the Figure-7 benchmark archive (the same 300-pattern STT-like
history ``bench_archive_query`` builds) partitioned into 4 shards, and
runs one ``match_many`` batch through both deployment modes of the
:mod:`repro.serving` seam:

* **serial** — shard engines in the calling thread (the baseline);
* **process** — one worker per shard, hydrated once from format-v3
  shard dumps (true parallelism; hydration is a one-time cost the
  always-on service amortizes over its lifetime).

The merged answers must be byte-identical across modes — ids, exact
float distances, alignments — that's the seam's contract, re-checked
here at benchmark scale. Wall times and candidate counts land in the
repo-root ``BENCH_serving.json`` trajectory (one JSONL record per mode
per run, commit-stamped).

``test_serving_modes_agree_and_process_scales`` is the CI perf-smoke
gate: on a multi-core runner the process executor must beat the serial
baseline on the batch; on a single-CPU host the speedup assertion
stands down (there is nothing to parallelize onto) and the bench is
report-only.
"""

from __future__ import annotations

import os
import time

from bench_archive_query import THRESHOLD, _archive_and_queries
from common import emit_bench_record, report
from repro.eval.harness import Table, fmt_seconds
from repro.retrieval import (
    MatchQuery,
    ShardedMatchEngine,
    ShardedPatternBase,
)
from repro.serving import MODES

SHARDS = 4
#: Thresholds served per panel query. One suffices: the 6-query batch
#: at the panel threshold costs seconds of per-shard refinement per
#: round, so shard work dominates dispatch by orders of magnitude.
BATCH_THRESHOLDS = (THRESHOLD,)

_state = {}


def _sharded_and_batch():
    if "sharded" not in _state:
        base, queries = _archive_and_queries()
        _state["sharded"] = ShardedPatternBase.from_base(
            base, SHARDS, "window"
        )
        _state["batch"] = [
            MatchQuery(sgs=query_sgs, threshold=threshold)
            for threshold in BATCH_THRESHOLDS
            for query_sgs in queries
        ]
    return _state["sharded"], _state["batch"]


def _exact(results):
    return [
        (r.pattern.pattern_id, r.distance, tuple(r.alignment))
        for r in results
    ]


def _run_mode(mode: str, sharded, batch, rounds: int = 2):
    """Construct (timed: hydration/spawn for process mode), then serve
    the batch ``rounds`` times; returns the best round."""
    start = time.perf_counter()
    engine = ShardedMatchEngine(sharded, mode=mode)
    t_setup = time.perf_counter() - start
    try:
        best = None
        answers = None
        candidates = 0
        for _ in range(rounds):
            start = time.perf_counter()
            batched = engine.match_many(batch)
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
                answers = [_exact(results) for results, _ in batched]
                candidates = sum(
                    stats.gathered for _, stats in batched
                )
        return t_setup, best, candidates, answers
    finally:
        engine.close()


def test_serving_modes_agree_and_process_scales(benchmark):
    """Perf + parity smoke (CI): every deployment mode returns
    byte-identical merged batch answers; with real cores available the
    process workers must beat the serial baseline on wall time."""
    sharded, batch = _sharded_and_batch()
    cpus = os.cpu_count() or 1
    runs = {mode: _run_mode(mode, sharded, batch) for mode in MODES}

    table = Table(
        "Shard serving — deployment-mode ablation "
        f"({len(sharded)} archived patterns, {SHARDS} shards, "
        f"{len(batch)}-query match_many batch, {cpus} CPUs)",
        ["mode", "setup", "batch wall time", "candidates", "vs serial"],
    )
    t_serial = runs["serial"][1]
    for mode in MODES:
        t_setup, t_batch, candidates, _ = runs[mode]
        table.add_row(
            mode,
            fmt_seconds(t_setup),
            fmt_seconds(t_batch),
            candidates,
            f"{t_serial / max(t_batch, 1e-9):.2f}x",
        )
        emit_bench_record(
            "serving",
            "sharded_match_many",
            mode=mode,
            shards=SHARDS,
            batch_queries=len(batch),
            cpus=cpus,
            setup_time_s=round(t_setup, 6),
            wall_time_s=round(t_batch, 6),
            candidates_examined=candidates,
        )
    report(table.render())

    serial_answers = runs["serial"][3]
    assert runs["process"][3] == serial_answers, (
        "process mode diverged from the serial merged answers"
    )
    assert runs["process"][2] == runs["serial"][2], (
        "process mode examined a different candidate count"
    )

    if cpus >= 2:
        assert runs["process"][1] < t_serial, (
            f"process mode ({runs['process'][1]:.4f}s) did not beat the "
            f"serial baseline ({t_serial:.4f}s) on {cpus} CPUs"
        )
    else:
        report(
            "note: single-CPU host — process-beats-serial gate stands "
            "down (report-only run)"
        )
    benchmark.pedantic(
        lambda: _run_mode("serial", sharded, batch, rounds=1),
        rounds=1,
        iterations=1,
    )


def test_serving_failover_ablation(benchmark):
    """Failover ablation: the latency cost of losing a shard worker
    mid-batch, replicated vs unreplicated.

    For each replica count, serve one healthy warm round, then SIGKILL
    a worker of shard 0 *while the next batch is in flight* (the
    ``inject_crash`` fault hook pins the read cursor to the victim so
    the batch really lands on the dying worker) and time that batch.

    * ``replicas=1`` recovers by respawn-and-wait: the batch stalls on
      worker spawn + format-v3 rehydration + journal replay.
    * ``replicas=2`` fails over to the live sibling while the dead
      worker respawns in the background — the hot path never waits on
      hydration, which is the whole point of replication.

    Both kill rounds must answer byte-identically to the healthy
    round; the records land in ``BENCH_serving.json``.
    """
    sharded, batch = _sharded_and_batch()
    cpus = os.cpu_count() or 1
    table = Table(
        "Shard serving — failover ablation "
        f"({len(sharded)} archived patterns, {SHARDS} shards, "
        f"kill one worker of shard 0 mid-batch, {cpus} CPUs)",
        ["replicas", "healthy batch", "batch during kill", "recovery"],
    )
    for replicas in (1, 2):
        engine = ShardedMatchEngine(
            sharded, mode="process", replicas=replicas
        )
        try:
            executor = engine.executor
            start = time.perf_counter()
            healthy = [
                _exact(results)
                for results, _ in engine.match_many(batch)
            ]
            t_healthy = time.perf_counter() - start
            executor.inject_crash(0, 0, delay=0.05)
            start = time.perf_counter()
            killed = [
                _exact(results)
                for results, _ in engine.match_many(batch)
            ]
            t_killed = time.perf_counter() - start
            assert killed == healthy, (
                f"answers diverged after the kill (replicas={replicas})"
            )
            if replicas > 1:
                assert executor.failovers >= 1, (
                    "replicated read did not fail over to a sibling"
                )
                recovery = (
                    f"sibling failover ({executor.failovers} failovers)"
                )
            else:
                assert executor.restarts >= 1, (
                    "unreplicated worker was never respawned"
                )
                recovery = (
                    f"respawn + rehydrate ({executor.restarts} restarts)"
                )
            table.add_row(
                replicas,
                fmt_seconds(t_healthy),
                fmt_seconds(t_killed),
                recovery,
            )
            emit_bench_record(
                "serving",
                "failover_kill_one",
                replicas=replicas,
                shards=SHARDS,
                batch_queries=len(batch),
                cpus=cpus,
                healthy_wall_time_s=round(t_healthy, 6),
                kill_wall_time_s=round(t_killed, 6),
                failovers=executor.failovers,
                restarts=executor.restarts,
            )
        finally:
            engine.close()
    report(table.render())
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
