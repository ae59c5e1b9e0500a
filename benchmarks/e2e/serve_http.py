"""``serve-http`` — the panel and ingests through ``repro serve``.

``python -m repro.cli serve --store 'sqlite:PATH?cache=256' --shards 2
--mode process`` runs as a subprocess on the ``match-panel`` archive
(which fits this LRU); one client process holds 2 keep-alive
connections and works through a fixed, seeded request list in a closed
loop (a connection sends its next request when its previous one is
answered): position-insensitive ``POST /match``, position-sensitive
``POST /match`` and ``POST /ingest`` interleaved — writes beside reads,
through the journal and worker replication. The only workload where
``serving.*`` runs: process fan-out, merge, wire, the service lock,
HTTP. Same engine and archive as ``match-panel``, so the gap between
the two is the serving stack.

One pass = spawn the server on a fresh copy of the archive and wait for
``/healthz`` 200 (the set-up sample), send one untimed warm-up match
(the shard workers hydrate behind ``/healthz``, and how long the first
answer waits for them is a race between three processes on two cores:
0.85 s or 1.2 s, nothing between — ``serving.executors.hydrate_ms``
reports it from the traced run), send the list, stop the server. The headline latency class is the position-insensitive match;
``ops_per_s`` counts every request; ``peak_rss_mb`` is the server and
its workers (high-water marks summed), not the load generator.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.archive.pattern_base import PatternBase
from repro.core.serialize import sgs_from_dict, sgs_to_dict
from repro.retrieval.engine import MatchEngine
from repro.serving import wire
from repro.serving.merge import merge_shard_results
from repro.serving.service import MatchService

from . import inputs, measure, procs, verify
from .inputs import INGEST, PI, PS
from .match_panel import ARCHIVE_POINTS, HELD_POINTS, copy_archive
from .measure import PassResult
from .trace import Tracer

NAME = "serve-http"

N_PI, N_PS, N_INGEST = 56, 56, 16
SMOKE = dict(archive_points=4000, held_points=2500, n_pi=8, n_ps=16, n_ingest=4)
SHARDS, CLIENTS, CACHE = 2, 2, 256
#: Match requests per class replayed in process by the traced run.
TRACED_SUBSET = {PI: 16, PS: 32}
#: Answers per class checked against a serial engine after the run.
ORACLE_SAMPLES = {PI: 6, PS: 12}

Request = Tuple[str, str, bytes]  # kind, path, body


def build_requests(panel: inputs.Panel) -> List[Request]:
    requests: List[Request] = []
    for kind, i in panel.ops:
        if kind == INGEST:
            sgs, full_size = panel.ingests[i]
            payload = {"sgs": sgs_to_dict(sgs), "full_size": full_size}
            path = "/ingest"
        else:
            payload = wire.query_to_wire(panel.queries[kind][i])
            path = "/match"
        requests.append((kind, path, json.dumps(payload).encode()))
    return requests


# ----------------------------------------------------------------------
# The server subprocess
# ----------------------------------------------------------------------


def _sigint_default() -> None:
    # A parent started with SIGINT ignored (a shell's background job)
    # would hand that down, and the server could not be interrupted.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """``repro serve`` in its own process group; ``stop()`` interrupts
    it (the CLI then closes the service and joins its workers) and does
    not return before every process of the group has ended."""

    def __init__(self, db_path: str, workdir: str, warmup: Request):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(measure.ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["TMPDIR"] = workdir
        self._stderr = open(os.path.join(workdir, "server.stderr"), "ab")
        started = perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--store", f"sqlite:{db_path}?cache={CACHE}",
                "--shards", str(SHARDS), "--mode", "process",
                "--inverted-levels", "1", "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
            cwd=workdir,
            start_new_session=True,
            preexec_fn=_sigint_default,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 120)
            banner = self.proc.stdout.readline().decode() if ready else ""
            bound = re.search(r"on http://([\d.]+):(\d+)\s*$", banner)
            if not bound:
                raise RuntimeError(f"unparseable serve banner: {banner!r}")
            self.port = int(bound.group(2))
            connection = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=120
            )
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(f"/healthz answered {response.status}")
            self.setup_s = perf_counter() - started
            status, _ = post(connection, warmup[1], warmup[2])
            if status != 200:
                raise RuntimeError(f"warm-up match answered {status}")
            connection.close()
        except BaseException:
            self.stop()
            raise

    def get(self, path: str) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def rss_mb(self) -> float:
        """High-water resident sets of the server's process group,
        summed (``/proc/PID/status`` ``VmHWM``, KiB)."""
        total_kib = 0
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                if os.getpgid(int(entry)) != self.proc.pid:
                    continue
                with open(f"/proc/{entry}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kib += int(line.split()[1])
            except (OSError, ValueError):
                continue  # the process ended while we were looking
        return total_kib / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)  # workers too
                self.proc.wait()
        # The workers and the resource tracker the server orphans are
        # handed to this process (the run is their subreaper).
        procs.wait_children(group=self.proc.pid)
        self.proc.stdout.close()
        self._stderr.close()


# ----------------------------------------------------------------------
# The load generator
# ----------------------------------------------------------------------


def post(connection, path: str, body: bytes) -> Tuple[int, bytes]:
    connection.request(
        "POST", path, body=body, headers={"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    return response.status, response.read()


def drive(port: int, requests: Sequence[Request], clients: int):
    """Closed loop: ``clients`` keep-alive connections share the list;
    returns ``(wall seconds, [(status, latency, body) per request])``."""
    outcomes: List[Optional[tuple]] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()

    def worker() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                _, path, body = requests[index]
                asked = perf_counter()
                try:
                    status, data = post(connection, path, body)
                except (OSError, http.client.HTTPException) as error:
                    status, data = 0, repr(error).encode()
                    connection.close()
                outcomes[index] = (status, perf_counter() - asked, data)
        finally:
            connection.close()

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    started = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return perf_counter() - started, outcomes


def _answers(requests, outcomes):
    """Match answers (``None`` for ingests / failures) and acked ingest
    ids, parsed after the timed loop."""
    answers, acked = [], []
    for (kind, _, _), (status, _, data) in zip(requests, outcomes):
        if status != 200:
            answers.append(None)
        elif kind == INGEST:
            acked.append(json.loads(data)["pattern_id"])
            answers.append(None)
        else:
            answers.append(
                [
                    (r["pattern_id"], r["distance"], tuple(r["alignment"]))
                    for r in json.loads(data)["results"]
                ]
            )
    return answers, acked


def _without(answer, pattern_ids):
    """An answer minus the given patterns: whether a concurrent ingest
    landed before or after a match is a race between the two
    connections, so ingested patterns are left out of comparisons."""
    return [item for item in answer if item[0] not in pattern_ids]


def http_pass(
    panel: inputs.Panel,
    requests: Sequence[Request],
    workdir: str,
    tag: str,
    clients: int = CLIENTS,
) -> PassResult:
    db_path = copy_archive(panel.db_path, os.path.join(workdir, f"{tag}.db"))
    warmup = next(r for r in requests if r[0] == PS)
    server = Server(db_path, workdir, warmup)
    try:
        wall, outcomes = drive(server.port, requests, clients)
        stats = server.get("/stats")
        rss_mb = server.rss_mb()
    finally:
        server.stop()
    answers, acked = _answers(requests, outcomes)
    ingested = set(acked)
    latencies: Dict[str, List[float]] = {PI: [], PS: [], INGEST: []}
    for (kind, _, _), (status, latency, _) in zip(requests, outcomes):
        if status == 200:
            latencies[kind].append(latency)
    return PassResult(
        setup_s=server.setup_s,
        ops=len(requests),
        # Two connections overlap, so the wall time is the one piece.
        busy_parts=[wall],
        latencies=latencies[PI],
        attempted=len(requests),
        failed=sum(1 for status, _, _ in outcomes if status != 200),
        digest=verify.answers_digest(
            _without(a, ingested) for a in answers if a is not None
        ),
        extra={
            "answers": answers,
            "acked": acked,
            "latencies": latencies,
            "stats": stats,
            "rss_mb": rss_mb,
            "db_path": db_path,
            "db_bytes": os.path.getsize(db_path),
            "request_bytes": statistics.mean(len(r[2]) for r in requests),
            "response_bytes": statistics.mean(len(o[2]) for o in outcomes),
        },
    )


def check_after_run(panel, last: PassResult, checks: verify.Checks) -> None:
    """The server is stopped: reopen its store in process. Every
    acknowledged ingest must be there, and sampled HTTP answers must
    equal a serial ``MatchEngine`` over that store — ids, float
    distances, alignments."""
    base = PatternBase(store=f"sqlite:{last.extra['db_path']}")
    try:
        acked = last.extra["acked"]
        checks.record(
            f"all {len(acked)} acknowledged ingests are in the reopened store",
            all(pattern_id in base for pattern_id in acked),
        )
        checks.equal(
            "store holds the archive plus the ingests",
            len(base),
            panel.patterns + len(acked),
        )
        engine = MatchEngine(base)
        ingested = set(acked)
        seen = {PI: 0, PS: 0}
        agree = True
        for (kind, i), answer in zip(panel.ops, last.extra["answers"]):
            if kind == INGEST or answer is None or seen[kind] >= ORACLE_SAMPLES[kind]:
                continue
            seen[kind] += 1
            results, _ = engine.match(panel.queries[kind][i])
            agree = agree and _without(answer, ingested) == _without(
                verify.answer_of(results), ingested
            )
        checks.record(
            f"{sum(seen.values())} sampled HTTP answers equal a serial engine",
            agree,
        )
    finally:
        base.close()


# ----------------------------------------------------------------------
# The traced run: layers measured in process on the same payloads
# ----------------------------------------------------------------------


def _subset(panel, requests):
    """The first match requests of each class, in list order:
    ``(query, request)`` pairs."""
    taken = {PI: 0, PS: 0}
    chosen = []
    for (kind, i), request in zip(panel.ops, requests):
        if kind != INGEST and taken[kind] < TRACED_SUBSET[kind]:
            taken[kind] += 1
            chosen.append((panel.queries[kind][i], request))
    return chosen


def in_process_layers(panel, subset, workdir, tracer: Tracer) -> dict:
    span = tracer.span
    subset = [
        (request[0], query, json.loads(request[2])) for query, request in subset
    ]
    db_path = copy_archive(panel.db_path, os.path.join(workdir, "inproc.db"))
    walls: Dict[str, Dict[str, List[float]]] = {
        "process": {PI: [], PS: []}, "serial": {PI: [], PS: []},
    }
    dispatch: List[float] = []
    slowest = mean_busy = 0.0

    started = perf_counter()
    service = MatchService.from_archive(
        store=f"sqlite:{db_path}?cache={CACHE}", shards=SHARDS,
        mode="process", inverted_levels=(1,),
    )
    try:
        with span("serving.executors.hydrate"):
            service.match(subset[0][2])  # answered once the workers hydrated
        hydrate_s = perf_counter() - started
        serial = MatchService(service.base, mode="serial")
        for kind, query, payload in subset:
            with span("core.serialize.parse"):
                sgs_from_dict(payload["sgs"])
            asked = perf_counter()
            with span("serving.executors.process_match"):
                service.match(payload)
            process_wall = perf_counter() - asked
            walls["process"][kind].append(process_wall)

            busy, per_shard = [], []
            for engine in service.engine.engines:
                asked = perf_counter()
                with span("retrieval.engine.shard_match"):
                    per_shard.append(engine.match(query))
                busy.append(perf_counter() - asked)
            slowest += max(busy)
            mean_busy += statistics.mean(busy)
            dispatch.append(process_wall - max(busy))

            with span("serving.merge.merge"):
                results, stats = merge_shard_results(per_shard, query, True)
            with span("serving.wire.encode"):
                wire.query_from_wire(wire.query_to_wire(query))
                wire.results_from_wire(
                    wire.results_to_wire(results), service.base.get
                )
                wire.stats_from_wire(wire.stats_to_wire(stats))

            asked = perf_counter()
            with span("serving.service.match"):
                serial.match(payload)
            walls["serial"][kind].append(perf_counter() - asked)
        serial.engine.close()
    finally:
        service.close()
    return {
        "hydrate_s": hydrate_s,
        "walls": walls,
        "dispatch": dispatch,
        "shard_skew": slowest / mean_busy,
        "wall_s": sum(walls["process"][PI]) + sum(walls["process"][PS]),
    }


def _p50_ms(samples: Sequence[float]) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


def run(args) -> dict:
    checks = verify.Checks()
    sizes = SMOKE if args.smoke else dict(
        archive_points=ARCHIVE_POINTS, held_points=HELD_POINTS,
        n_pi=N_PI, n_ps=N_PS, n_ingest=N_INGEST,
    )
    with measure.scratch(NAME) as workdir:
        panel = inputs.build_panel(
            args.seed, os.path.join(workdir, "archive.db"), **sizes
        )
        requests = build_requests(panel)
        if not args.trace:
            passes = measure.run_passes(
                lambda i: http_pass(panel, requests, workdir, f"p{i}"),
                args.seconds,
                args.smoke,
            )
            metrics = measure.end_to_end(
                passes, max(p.extra["rss_mb"] for p in passes), args.smoke,
                stepped=True,  # round trips come in 4 ms steps
            )
        else:
            passes = [http_pass(panel, requests, workdir, "ref")]
            subset = _subset(panel, requests)
            single = http_pass(
                panel, [request for _, request in subset], workdir, "one",
                clients=1,
            )
            tracer = Tracer(f"{NAME}-seed{args.seed}")
            layers = in_process_layers(panel, subset, workdir, tracer)
            metrics = _layer_metrics(
                tracer, layers, passes[0], single, panel, checks
            )
            if args.out:
                tracer.dump(os.path.join(args.out, f"{NAME}.trace.json"))
        check_after_run(panel, passes[-1], checks)
    checks.equal("no request failed", sum(p.failed for p in passes), 0)
    return measure.outcome(
        checks, passes, metrics,
        archived_patterns=panel.patterns, requests_per_pass=len(requests),
    )


def _layer_metrics(tracer, layers, reference, single, panel, checks):
    self_ms = tracer.layer_ms()
    checks.no_stream_spans(tracer.names())
    checks.equal("the one-client pass failed no request", single.failed, 0)
    two = reference.extra["latencies"]
    one = single.extra["latencies"]
    walls = layers["walls"]
    stats = reference.extra["stats"]
    store = stats["store"]
    patterns = panel.patterns + len(reference.extra["acked"])
    return {
        "archive.archiver.patterns": patterns,
        "archive.store.db_bytes": reference.extra["db_bytes"],
        "archive.store.bytes_per_pattern": reference.extra["db_bytes"] / patterns,
        "archive.store.hydrations": store["hydrations"],
        "archive.store.cache_hits": store["cache_hits"],
        "archive.store.evictions": store["evictions"],
        "core.serialize.parse_ms": self_ms["core.serialize.parse_ms"],
        "serving.wire.encode_ms": self_ms["serving.wire.encode_ms"],
        "serving.wire.request_bytes": reference.extra["request_bytes"],
        "serving.wire.response_bytes": reference.extra["response_bytes"],
        "serving.service.match_ms": _p50_ms(walls["serial"][PI]),
        # The position-sensitive class is overhead-bound (its engine
        # time is a few ms), so HTTP's own cost reads cleanest on it.
        "serving.httpd.overhead_ms": _p50_ms(one[PS]) - _p50_ms(walls["process"][PS]),
        # Over the requests both passes sent: the one-client pass sends
        # the first matches of the list, and queries differ in cost.
        "serving.service.lock_wait_ms": _p50_ms(two[PI][: len(one[PI])])
        - _p50_ms(one[PI]),
        "serving.executors.hydrate_ms": layers["hydrate_s"] * 1e3,
        "serving.executors.dispatch_ms": _p50_ms(layers["dispatch"]),
        "serving.executors.shard_skew": layers["shard_skew"],
        "serving.executors.restarts": stats["restarts"],
        "serving.executors.failovers": stats["failovers"],
        "serving.merge.merge_ms": self_ms["serving.merge.merge_ms"],
        "ops.ps_match_p50_ms": _p50_ms(two[PS]),
        "ops.ingest_p50_ms": _p50_ms(two[INGEST]),
        # The traced wall is the in-process process-mode replay, which
        # splits by construction into the slower shard's engine time and
        # the dispatch remainder, so nothing is unattributed; and no
        # HTTP pass is re-run under trace, so there is no overhead share.
        "trace.wall_ms": layers["wall_s"] * 1e3,
    }
