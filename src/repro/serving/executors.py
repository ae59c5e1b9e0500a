"""The deployment-mode seam: where shard work runs.

A :class:`ShardExecutor` answers ``match`` / ``match_many`` for *every*
shard of a partitioned archive and returns the per-shard
``(results, stats)`` pairs in shard order — the caller (the
:class:`~repro.retrieval.shards.ShardedMatchEngine` facade or the
always-on service) merges them through
:func:`repro.serving.merge.merge_shard_results`. Two implementations
are interchangeable with identical answers:

* :class:`SerialExecutor` — an in-process loop over the shard engines;
  the deterministic-profiling and single-shard baseline.
* :class:`ProcessExecutor` — ``replicas`` OS processes per shard
  (one by default). Each worker **hydrates its shard once from a
  SQLite dump** (written at construction through
  :func:`repro.archive.persistence.dump_pattern_base`, inverted
  posting lists included, so workers start warm) copied into its own
  in-memory store — a worker never writes to disk — then answers
  tasks over a request/response queue pair.
  Reads route round-robin across a shard's live replicas; a replica
  that dies with a read in flight triggers **failover** — the task is
  resubmitted to a live sibling immediately while the dead worker
  respawns in the background — and only a shard with *no* live
  replica left falls back to the respawn-and-wait path. Ingests fan
  out to every replica of the owning shard and are journaled (per
  shard, **after** every replica acknowledged) for respawn replay.
  Crash recovery never changes answers, because replicas hydrate from
  the same dump and shard answers are deterministic.

Results cross the process boundary as
``[pattern_id, distance, alignment]`` triples
(:mod:`repro.serving.wire`) and re-attach to the caller's own archive
copy through a resolver, so the merged output is bit-identical to the
serial path's.
"""

from __future__ import annotations

import os
import queue as queue_module
import signal
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.archive.pattern_base import ArchivedPattern, PatternBase
from repro.archive.persistence import dump_pattern_base, load_pattern_base
from repro.core.serialize import sgs_from_dict, sgs_to_dict
from repro.serving.wire import (
    metric_from_wire,
    query_from_wire,
    query_to_wire,
    results_from_wire,
    results_to_wire,
    stats_from_wire,
    stats_to_wire,
)

#: The supported deployment modes, in escalation order.
MODES = ("serial", "process")

#: How many consecutive crash-restarts one task may trigger before the
#: executor gives up and raises.
DEFAULT_RESTART_LIMIT = 3

#: Seconds between liveness checks while awaiting a worker reply.
_POLL_SECONDS = 0.05


def validate_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(
            f"unknown serving mode {mode!r}; expected one of {MODES}"
        )
    return mode


class ShardExecutor:
    """Protocol base: per-shard execution behind one seam.

    ``match``/``match_many`` return per-shard answers in shard order;
    ``ingest`` propagates a newly archived pattern to whatever copy of
    its shard the executor serves from (a no-op for in-process modes,
    which share the caller's live archive); ``close`` releases owned
    resources and is idempotent. Executors are context managers.

    The replica/failover surface is uniform: in-process modes serve
    from the caller's one live archive, so they report one replica,
    no liveness table, and zero failover counters.
    """

    mode: str = ""
    #: Worker replicas per shard (only ``process`` mode runs real ones).
    replica_count: int = 1
    #: Workers respawned after a crash.
    restarts: int = 0
    #: Tasks retried on a live sibling replica after a worker death.
    failovers: int = 0

    def __init__(self) -> None:
        self._closed = False

    @property
    def parallel(self) -> bool:
        return False

    def replica_liveness(self) -> List[List[bool]]:
        """Per-shard replica liveness (empty for in-process modes,
        which have no worker processes to die)."""
        return []

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")

    def match(self, query) -> List[Tuple[list, object]]:
        raise NotImplementedError

    def match_many(self, queries) -> List[List[Tuple[list, object]]]:
        raise NotImplementedError

    def ingest(self, shard_index: int, pattern: ArchivedPattern) -> None:
        self._check_open()

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(ShardExecutor):
    """Run every shard's work in the calling thread, in shard order."""

    mode = "serial"

    def __init__(self, engines: Sequence):
        super().__init__()
        self.engines = list(engines)

    def match(self, query):
        self._check_open()
        return [engine.match(query) for engine in self.engines]

    def match_many(self, queries):
        self._check_open()
        return [engine.match_many(queries) for engine in self.engines]


# ----------------------------------------------------------------------
# Process workers
# ----------------------------------------------------------------------


def _worker_main(dump_path, config, request_queue, response_queue):
    """One shard worker: copy the shard dump into memory, then serve.

    Runs in a child process. Tasks arrive as
    ``(task_id, command, payload)`` tuples; ``None`` shuts the worker
    down. Replies are ``(task_id, "ok" | "error", payload)``.
    """
    from repro.retrieval.engine import MatchEngine

    base = load_pattern_base(dump_path)
    engine = MatchEngine(
        base,
        spec=metric_from_wire(config["metric"]),
        max_alignment_expansions=config["max_alignment_expansions"],
        coarse_level=config["coarse_level"],
        coarse_margin=config["coarse_margin"],
        ladder_factor=config["ladder_factor"],
        min_coarse_cells=config["min_coarse_cells"],
        use_inverted=config["use_inverted"],
    )
    while True:
        task = request_queue.get()
        if task is None:
            return
        task_id, command, payload = task
        try:
            if command == "match":
                results, stats = engine.match(query_from_wire(payload))
                reply = (results_to_wire(results), stats_to_wire(stats))
            elif command == "match_many":
                queries = [query_from_wire(data) for data in payload]
                reply = [
                    (results_to_wire(results), stats_to_wire(stats))
                    for results, stats in engine.match_many(queries)
                ]
            elif command == "ingest":
                pattern_id, sgs_data, full_size = payload
                base.restore(
                    ArchivedPattern(
                        pattern_id, sgs_from_dict(sgs_data), full_size
                    )
                )
                reply = len(base)
            elif command == "ping":
                reply = os.getpid()
            elif command == "crash":
                # Fault-injection hook (see ProcessExecutor.
                # inject_crash): die mid-task, exactly like a SIGKILL
                # from outside, after an optional delay that lets the
                # parent submit real work behind this task first.
                time.sleep(float(payload or 0.0))
                os.kill(os.getpid(), signal.SIGKILL)
            else:
                raise ValueError(f"unknown worker command {command!r}")
            response_queue.put((task_id, "ok", reply))
        except Exception as error:  # surface, don't die: the parent
            # treats a dead worker as a crash and restarts it; a
            # malformed task should fail loudly instead.
            response_queue.put(
                (task_id, "error", f"{type(error).__name__}: {error}")
            )


def _child_import_path() -> None:
    """Make ``repro`` importable in spawned children.

    ``spawn`` children rebuild ``sys.path`` from the environment, not
    from the parent interpreter — a source checkout run with
    ``PYTHONPATH=src`` (or pytest's ``pythonpath`` setting) would leave
    them unable to import this module. Prepend the package root to
    ``PYTHONPATH`` so every future spawn inherits it.
    """
    package_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    existing = os.environ.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            package_root + os.pathsep + existing if existing
            else package_root
        )


class _Replica:
    """One worker process (plus its queue pair) serving one shard."""

    __slots__ = ("process", "requests", "responses")

    def __init__(self, process, requests, responses):
        self.process = process
        self.requests = requests
        self.responses = responses

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


#: Sentinel returned by the reply poll when the polled replica died
#: with the task in flight.
_DEAD = object()


class ProcessExecutor(ShardExecutor):
    """``replicas`` multiprocessing workers per shard, with failover.

    Construction persists each shard to a SQLite dump in an owned
    temporary directory and spawns ``replicas`` workers per shard;
    each worker hydrates from its shard's dump exactly once and then
    answers match / match_many / ingest tasks over its own queue pair.

    **Reads** (match / match_many) route round-robin across a shard's
    live replicas. A replica found dead with a read in flight fails
    over: the task is resubmitted to a live sibling immediately and
    the dead worker respawns in the background (its journal replay is
    queued ahead of any future task, so it comes back consistent
    without anyone waiting on it). Only when a shard has no live
    replica left does the read wait for a synchronous respawn — the
    single-replica legacy path. Per-task retries are bounded by
    ``restart_limit``.

    **Ingests** fan out to every replica of the owning shard and are
    journaled per shard — *after* every replica acknowledged, so a
    worker death mid-ingest (respawn replays the journal, then the
    entry is resubmitted) applies the entry exactly once. Journaling
    before submission made replay *and* resubmission both carry the
    entry, and recovery died on the worker's duplicate-id error.

    ``resolve`` maps result pattern ids back to the caller's own
    archive records (typically ``ShardedPatternBase.get``), so the
    returned :class:`MatchResult` objects are indistinguishable from
    the in-process executors'.
    """

    mode = "process"

    def __init__(
        self,
        shards: Sequence[PatternBase],
        engine_config: Dict[str, object],
        resolve: Callable[[int], Optional[ArchivedPattern]],
        restart_limit: int = DEFAULT_RESTART_LIMIT,
        replicas: int = 1,
    ):
        super().__init__()
        import multiprocessing

        if not shards:
            raise ValueError("ProcessExecutor needs at least one shard")
        if replicas < 1:
            raise ValueError("replicas must be positive")
        self._config = dict(engine_config)
        self._resolve = resolve
        self.restart_limit = int(restart_limit)
        self.replica_count = int(replicas)
        self._context = multiprocessing.get_context("spawn")
        _child_import_path()
        self._tempdir = tempfile.TemporaryDirectory(prefix="repro-shards-")
        self._dump_paths = []
        for index, shard in enumerate(shards):
            path = os.path.join(self._tempdir.name, f"shard-{index}.db")
            dump_pattern_base(shard, path)
            self._dump_paths.append(path)
        self._groups: List[List[Optional[_Replica]]] = [
            [None] * self.replica_count for _ in shards
        ]
        #: Round-robin read cursor per shard.
        self._cursor = [0] * len(shards)
        #: Ingests accepted after the hydration dump (journaled only
        #: once every replica acknowledged), replayed into respawned
        #: workers before any later task.
        self._ingest_log: List[List[tuple]] = [[] for _ in shards]
        self._task_counter = 0
        self.restarts = 0
        self.failovers = 0
        for shard in range(len(shards)):
            for replica in range(self.replica_count):
                self._spawn(shard, replica)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self._groups)

    @property
    def parallel(self) -> bool:
        return self.shard_count > 1

    def worker_pids(self) -> List[int]:
        """Every worker pid, shard-major (one per shard at the default
        ``replicas=1``)."""
        return [rep.process.pid for group in self._groups for rep in group]

    def replica_liveness(self) -> List[List[bool]]:
        return [
            [rep is not None and rep.alive for rep in group]
            for group in self._groups
        ]

    def inject_crash(
        self, shard: int, replica: int, delay: float = 0.0
    ) -> None:
        """Fault-injection hook (tests / chaos drills): make one
        replica worker SIGKILL itself after ``delay`` seconds and pin
        the shard's read cursor to it, so the next read deterministically
        lands on a worker that dies mid-task."""
        self._check_open()
        self._submit_to(shard, replica, "crash", float(delay))
        self._cursor[shard] = replica

    def _spawn(self, shard: int, replica: int) -> None:
        request_queue = self._context.Queue()
        response_queue = self._context.Queue()
        worker = self._context.Process(
            target=_worker_main,
            args=(
                self._dump_paths[shard],
                self._config,
                request_queue,
                response_queue,
            ),
            name=f"repro-shard-{shard}r{replica}",
            daemon=True,
        )
        worker.start()
        self._groups[shard][replica] = _Replica(
            worker, request_queue, response_queue
        )

    def _discard(self, shard: int, replica: int) -> None:
        rep = self._groups[shard][replica]
        if rep is None:
            return
        for channel in (rep.requests, rep.responses):
            channel.close()
            # Never block interpreter exit on a dead worker's
            # unflushed feeder thread.
            channel.cancel_join_thread()
        self._groups[shard][replica] = None

    def _respawn(self, shard: int, replica: int, wait: bool) -> None:
        """Respawn one replica from its shard dump and queue the
        ingest-journal replay. With ``wait=False`` the replay runs in
        the background — the fresh worker applies it FIFO before any
        later task, so nothing needs to block on it; ``wait=True``
        (the no-live-sibling path) blocks until the replay is applied.
        """
        rep = self._groups[shard][replica]
        if rep is not None:
            rep.process.join(timeout=0.5)
            self._discard(shard, replica)
        self._spawn(shard, replica)
        self.restarts += 1
        replay_ids = [
            self._submit_to(shard, replica, "ingest", entry)
            for entry in self._ingest_log[shard]
        ]
        if wait:
            for task_id in replay_ids:
                if self._poll(shard, replica, task_id) is _DEAD:
                    raise RuntimeError(
                        f"shard {shard} replica {replica} died during "
                        f"journal replay"
                    )

    # ------------------------------------------------------------------
    # The task protocol
    # ------------------------------------------------------------------

    def _submit_to(self, shard: int, replica: int, command: str, payload) -> int:
        self._task_counter += 1
        self._groups[shard][replica].requests.put(
            (self._task_counter, command, payload)
        )
        return self._task_counter

    def _poll(self, shard: int, replica: int, task_id: int):
        """Wait for one task's reply on one replica; returns the reply
        payload, or :data:`_DEAD` when the replica died first."""
        rep = self._groups[shard][replica]
        while True:
            try:
                reply_id, status, reply = rep.responses.get(
                    timeout=_POLL_SECONDS
                )
            except queue_module.Empty:
                if rep.alive:
                    continue
                return _DEAD
            if reply_id != task_id:
                # The only replies not awaited on this queue are
                # journal-replay acks from a background respawn; an
                # error there means the replica's state diverged.
                if status == "error":
                    raise RuntimeError(
                        f"shard {shard} replica {replica} journal "
                        f"replay failed: {reply}"
                    )
                continue
            if status == "error":
                raise RuntimeError(
                    f"shard worker {shard} failed: {reply}"
                )
            return reply

    def _live_sibling(self, shard: int, not_replica: int) -> Optional[int]:
        group = self._groups[shard]
        count = len(group)
        for step in range(count):
            replica = (self._cursor[shard] + step) % count
            if replica == not_replica:
                continue
            rep = group[replica]
            if rep is not None and rep.alive:
                self._cursor[shard] = (replica + 1) % count
                return replica
        return None

    def _pick(self, shard: int) -> int:
        """Round-robin routing: the next live replica of a shard.
        Replicas found dead at routing time are respawned in the
        background (repair piggybacks on reads); if every replica is
        dead, the read routes to the freshly respawned cursor replica —
        its queued journal replay precedes the task, so answers stay
        correct."""
        group = self._groups[shard]
        count = len(group)
        chosen = None
        for step in range(count):
            replica = (self._cursor[shard] + step) % count
            rep = group[replica]
            if rep is not None and rep.alive:
                if chosen is None:
                    chosen = replica
            else:
                self._respawn(shard, replica, wait=False)
        if chosen is None:
            chosen = self._cursor[shard] % count
        self._cursor[shard] = (chosen + 1) % count
        return chosen

    def _await_read(
        self, shard: int, replica: int, task_id: int, command: str, payload
    ):
        """Collect one read's reply, failing over to a live sibling —
        not waiting out a respawn — when the serving replica dies with
        the task in flight."""
        attempts = 0
        while True:
            reply = self._poll(shard, replica, task_id)
            if reply is not _DEAD:
                return reply
            attempts += 1
            if attempts > self.restart_limit:
                raise RuntimeError(
                    f"shard {shard} lost {attempts} workers on one "
                    f"{command} task; giving up"
                )
            sibling = self._live_sibling(shard, replica)
            if sibling is None:
                # No live replica left: the respawn-and-wait path is
                # all that remains (the single-replica deployment's
                # only option).
                self._respawn(shard, replica, wait=True)
            else:
                # Hot-path failover: the task moves to the sibling
                # now; the dead worker rebuilds in the background.
                self._respawn(shard, replica, wait=False)
                self.failovers += 1
                replica = sibling
            task_id = self._submit_to(shard, replica, command, payload)

    def _fan_out(self, command: str, payload):
        """Submit one task per shard (to its routed replica), then
        collect in shard order — shards compute concurrently in their
        own processes, and per-shard failover happens during collection
        without stalling the other shards."""
        self._check_open()
        slots = []
        for shard in range(self.shard_count):
            replica = self._pick(shard)
            slots.append(
                (replica, self._submit_to(shard, replica, command, payload))
            )
        return [
            self._await_read(shard, replica, task_id, command, payload)
            for shard, (replica, task_id) in enumerate(slots)
        ]

    def _await_ingest(
        self, shard: int, replica: int, task_id: int, entry
    ):
        """Collect one replica's ingest ack; a replica dying mid-ingest
        is respawned (journal replay first — the entry is *not* in the
        journal yet) and the entry resubmitted, applying exactly once."""
        attempts = 0
        while True:
            reply = self._poll(shard, replica, task_id)
            if reply is not _DEAD:
                return reply
            attempts += 1
            if attempts > self.restart_limit:
                raise RuntimeError(
                    f"shard {shard} replica {replica} crashed "
                    f"{attempts} times on one ingest task; giving up"
                )
            self._respawn(shard, replica, wait=False)
            task_id = self._submit_to(shard, replica, "ingest", entry)

    # ------------------------------------------------------------------
    # The executor surface
    # ------------------------------------------------------------------

    def match(self, query):
        wire_query = query_to_wire(query)
        return [
            (
                results_from_wire(results, self._resolve),
                stats_from_wire(stats),
            )
            for results, stats in self._fan_out("match", wire_query)
        ]

    def match_many(self, queries):
        wire_queries = [query_to_wire(query) for query in queries]
        return [
            [
                (
                    results_from_wire(results, self._resolve),
                    stats_from_wire(stats),
                )
                for results, stats in per_query
            ]
            for per_query in self._fan_out("match_many", wire_queries)
        ]

    def ingest(self, shard_index: int, pattern: ArchivedPattern) -> None:
        """Fan one archived pattern out to every replica of its shard.

        The journal entry is appended only after *every* replica
        acknowledged — a worker that dies mid-ingest is respawned
        (replaying a journal that does not yet hold the entry) and the
        entry resubmitted, so it applies exactly once. Appending
        before submission was the crash-recovery double-apply bug:
        the respawn replayed the entry *and* the await resubmitted it,
        and the worker's duplicate-id error killed recovery.
        """
        self._check_open()
        entry = (
            pattern.pattern_id,
            sgs_to_dict(pattern.sgs),
            pattern.full_size,
        )
        group = self._groups[shard_index]
        submitted = []
        for replica in range(len(group)):
            rep = group[replica]
            if rep is None or not rep.alive:
                # A dead replica still needs the entry: respawn it now
                # (background replay first, FIFO before the entry).
                self._respawn(shard_index, replica, wait=False)
            submitted.append(
                (replica, self._submit_to(shard_index, replica, "ingest", entry))
            )
        for replica, task_id in submitted:
            self._await_ingest(shard_index, replica, task_id, entry)
        self._ingest_log[shard_index].append(entry)

    def close(self) -> None:
        if self._closed:
            return
        for shard, group in enumerate(self._groups):
            for rep in group:
                if rep is None:
                    continue
                try:
                    if rep.alive:
                        rep.requests.put(None)
                except (ValueError, OSError):
                    pass
        for shard, group in enumerate(self._groups):
            for replica, rep in enumerate(group):
                if rep is None:
                    continue
                rep.process.join(timeout=2.0)
                if rep.alive:
                    rep.process.terminate()
                    rep.process.join(timeout=1.0)
                self._discard(shard, replica)
        self._tempdir.cleanup()
        super().close()

    def __del__(self):  # best-effort: explicit close() is the API
        try:
            self.close()
        except Exception:
            pass


def build_executor(
    mode: Optional[str],
    engines: Sequence,
    base=None,
    worker_config: Optional[Dict[str, object]] = None,
    replicas: int = 1,
) -> ShardExecutor:
    """Construct the executor for a deployment mode.

    ``mode=None`` means serial — unless ``replicas > 1``, which implies
    process workers (replication only exists as worker processes).
    Serial with ``replicas > 1`` is a contradiction and raises. ``process``
    additionally needs ``base`` (the partitioned archive, for shard
    dumps and result resolution) and ``worker_config`` (the picklable
    engine construction arguments).
    """
    replicas = int(replicas)
    if replicas < 1:
        raise ValueError("replicas must be positive")
    if mode is None:
        mode = "process" if replicas > 1 else "serial"
    validate_mode(mode)
    if mode == "serial":
        if replicas > 1:
            raise ValueError(
                f"replicas={replicas} needs process mode; 'serial' serves "
                f"from the caller's one live archive"
            )
        return SerialExecutor(engines)
    if base is None or worker_config is None:
        raise ValueError(
            "process mode needs the partitioned base and a worker config"
        )
    return ProcessExecutor(
        base.shards(), worker_config, base.get, replicas=replicas
    )
