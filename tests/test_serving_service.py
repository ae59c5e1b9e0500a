"""The always-on front end: HTTP surface, golden answers, CLI e2e.

The service is a deployment of the same engine the golden suites pin,
so its HTTP answers must equal a direct engine's byte for byte —
across every ``--mode``. The last test drives the real ``repro serve``
process over a persisted archive: parse the printed bound port, ingest
a pattern, match, and compare against the in-process golden answer.
"""

import contextlib
import http.client
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from unittest.mock import ANY

import pytest

from tests.golden.workload import build_sharded_v3_archive
from repro.archive.persistence import dump_pattern_base
from repro.core.serialize import sgs_from_bytes, sgs_to_bytes, sgs_to_dict
from repro.retrieval import (
    MatchQuery,
    ShardedMatchEngine,
    ShardedPatternBase,
)
from repro.serving import httpd
from repro.serving.httpd import MatchRequestHandler, make_server
from repro.serving.service import MatchService, ServiceError


@pytest.fixture(scope="module")
def flat_base():
    return build_sharded_v3_archive()


@pytest.fixture(scope="module")
def archive_path(flat_base, tmp_path_factory):
    path = tmp_path_factory.mktemp("serving") / "figure7.sgsa"
    dump_pattern_base(flat_base, str(path))
    return str(path)


def _query_sgs(base):
    first = sorted(p.pattern_id for p in base.all_patterns())[0]
    return base.get(first).sgs


class _Client:
    """Tiny JSON client over urllib (stdlib only, like the server)."""

    def __init__(self, host, port):
        self.root = f"http://{host}:{port}"

    def get(self, path):
        with urllib.request.urlopen(self.root + path, timeout=30) as resp:
            return resp.status, json.loads(resp.read())

    def post(self, path, payload):
        request = urllib.request.Request(
            self.root + path,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())


@pytest.fixture()
def served(archive_path, request):
    """A live threaded server over the persisted archive."""
    mode = getattr(request, "param", "serial")
    service = MatchService.from_archive(archive_path, shards=2, mode=mode)
    server, host, port = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield _Client(host, port), service
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


def test_healthz_and_stats(served):
    client, service = served
    status, health = client.get("/healthz")
    assert status == 200
    assert health["status"] == "ok"
    assert health["archive_size"] == len(service.base)
    status, stats = client.get("/stats")
    assert status == 200
    assert stats["shards"] == 2
    assert stats["mode"] == service.mode
    assert sum(stats["shard_sizes"]) == stats["archive_size"]
    assert stats["requests"]["queries"] == 0
    # Replication keys are present even for the unreplicated serial
    # deployment, so dashboards can rely on the shape.
    assert stats["replicas"] == 1
    assert stats["replica_liveness"] == []
    assert stats["failovers"] == 0


def test_stats_expose_replica_liveness(archive_path):
    """A replicated deployment reports per-shard replica liveness and
    failover counters through the same /stats surface."""
    with MatchService.from_archive(
        archive_path, shards=2, mode="process", replicas=2
    ) as service:
        stats = service.stats()
        assert stats["mode"] == "process"
        assert stats["replicas"] == 2
        assert stats["replica_liveness"] == [[True, True], [True, True]]
        assert stats["failovers"] == 0
        assert stats["restarts"] == 0


@pytest.mark.parametrize(
    "served", ("serial", "process"), indirect=True
)
def test_http_answers_equal_direct_engine(served, flat_base):
    """Every deployment mode answers over HTTP exactly what a direct
    in-process engine answers — the service adds transport, nothing
    else."""
    client, service = served
    sgs = _query_sgs(flat_base)
    oracle_base = ShardedPatternBase.from_base(flat_base, 2, "window")
    with ShardedMatchEngine(oracle_base, mode="serial") as oracle:
        for threshold, top_k, coarse in (
            (0.2, None, 0),
            (0.5, 5, 1),
            (0.35, 2, 0),
        ):
            status, answer = client.post(
                "/match",
                {
                    "sgs": sgs_to_dict(sgs),
                    "threshold": threshold,
                    "top_k": top_k,
                    "coarse_level": coarse,
                },
            )
            assert status == 200
            expected, stats = oracle.match(
                MatchQuery(
                    sgs=sgs,
                    threshold=threshold,
                    top_k=top_k,
                    metric=oracle.spec,
                    coarse_level=coarse,
                )
            )
            assert [
                (r["pattern_id"], r["distance"], tuple(r["alignment"]))
                for r in answer["results"]
            ] == [
                (r.pattern.pattern_id, r.distance, tuple(r.alignment))
                for r in expected
            ]
            assert answer["stats"]["matches"] == stats.matches
            assert answer["stats"]["plan"]["entry"] == "sharded"


def test_match_many_and_ingest_roundtrip(served, flat_base):
    client, service = served
    sgs = _query_sgs(flat_base)
    before = len(service.base)
    status, ingested = client.post(
        "/ingest", {"sgs": sgs_to_dict(sgs), "full_size": 64}
    )
    assert status == 200
    assert ingested["archive_size"] == before + 1
    assert service.base.get(ingested["pattern_id"]) is not None
    status, answer = client.post(
        "/match_many",
        {
            "queries": [
                {"sgs": sgs_to_dict(sgs), "threshold": 0.0},
                {"sgs": sgs_to_dict(sgs), "threshold": 0.5, "top_k": 3},
            ]
        },
    )
    assert status == 200
    assert len(answer["answers"]) == 2
    # The freshly ingested duplicate matches its own SGS at distance 0.
    exact = {
        r["pattern_id"]
        for r in answer["answers"][0]["results"]
        if r["distance"] == 0.0
    }
    assert ingested["pattern_id"] in exact
    status, stats = client.get("/stats")
    assert stats["requests"]["ingest"] == 1
    assert stats["requests"]["queries"] == 2


def test_error_paths(served):
    client, _ = served
    status, body = client.post("/match", {"threshold": 0.5})
    assert status == 400 and "sgs" in body["error"]
    status, body = client.post("/match_many", {"queries": "nope"})
    assert status == 400
    status, body = client.post("/ingest", {"wrong": 1})
    assert status == 400
    status, body = client.post("/unknown", {})
    assert status == 404
    try:
        status, _ = client.get("/unknown")
    except urllib.error.HTTPError as error:
        status = error.code
    assert status == 404
    # Not JSON, and not even UTF-8 (that one used to be a 500).
    for data in (b"this is not json", b"\x80 not utf-8"):
        request = urllib.request.Request(
            client.root + "/match",
            data=data,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as resp:
                status = resp.status
        except urllib.error.HTTPError as error:
            status = error.code
        assert status == 400


@pytest.mark.parametrize(
    "field, value",
    [
        ("top_k", 1.5),
        ("top_k", True),
        ("top_k", "3"),
        ("top_k", 0),
        ("feature_ranges", [1, 2]),
        ("feature_ranges", {"volume": [1]}),
        ("feature_ranges", {"volume": 5}),
        ("coarse_level", 1.5),
        ("window_range", [0.5, 3]),
    ],
)
def test_malformed_query_field_is_a_400(served, flat_base, field, value):
    """Regression pin: ``"top_k": 1.5`` escaped as a slicing
    ``TypeError`` and ``"feature_ranges": [1, 2]`` as an
    ``AttributeError`` — both 500s — and ``int()`` truncated a
    fractional ``coarse_level`` or ``window_range`` bound. A query field
    of the wrong shape is a typed 400 on both query endpoints."""
    client, _ = served
    query = {"sgs": sgs_to_dict(_query_sgs(flat_base)), "threshold": 0.5}
    query[field] = value
    status, body = client.post("/match", query)
    assert status == 400 and body["error"].startswith("bad query"), body
    status, body = client.post("/match_many", {"queries": [query]})
    assert status == 400 and body["error"].startswith("bad query"), body


@pytest.fixture()
def small_body_server(archive_path, monkeypatch):
    """A live server whose body cap is small enough to trip from a
    test, for the keep-alive regressions."""
    monkeypatch.setattr(MatchRequestHandler, "max_body_bytes", 16 * 1024)
    service = MatchService.from_archive(archive_path, shards=2)
    server, host, port = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield host, port
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


def _match_payload(base):
    return json.dumps(
        {"sgs": sgs_to_dict(_query_sgs(base)), "threshold": 0.5}
    ).encode("utf-8")


def test_keep_alive_survives_rejected_oversized_body(
    small_body_server, flat_base
):
    """Regression pin: a 400 for an oversized body used to leave the
    body bytes unread on the keep-alive socket, so the *next* request
    on the same connection was parsed out of the middle of the stale
    body. The error path must drain (or close) before replying."""
    host, port = small_body_server
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        oversized = b"x" * 100_000  # > the patched 16 KB cap
        conn.request(
            "POST", "/match", body=oversized,
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        body = json.loads(resp.read())
        assert resp.status == 400
        assert "body too large" in body["error"]
        # Same socket, next request: must parse cleanly from a drained
        # stream. Pre-fix this came back as 400 "Bad request syntax".
        conn.request(
            "POST", "/match", body=_match_payload(flat_base),
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        answer = json.loads(resp.read())
        assert resp.status == 200
        assert answer["results"]
    finally:
        conn.close()


def test_keep_alive_survives_404_with_body(small_body_server, flat_base):
    """The 404 error path (unknown POST route) also replies without
    consuming the request body — same drain requirement."""
    host, port = small_body_server
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request(
            "POST", "/nope", body=b'{"some": "payload"}',
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        resp.read()
        assert resp.status == 404
        conn.request(
            "POST", "/match", body=_match_payload(flat_base),
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        json.loads(resp.read())
        assert resp.status == 200
    finally:
        conn.close()


def test_keep_alive_survives_get_with_body(small_body_server, flat_base):
    """Regression pin: ``GET`` takes no body, and its 200 never read the
    declared one, so the next request on the socket was parsed out of
    the stale body (the stdlib's HTML 400). Every reply drains."""
    host, port = small_body_server
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", "/healthz", body=b'{"unexpected": "body"}')
        resp = conn.getresponse()
        assert resp.status == 200 and json.loads(resp.read())["status"] == "ok"
        status, _, answer = _post(conn, "/match", _match_payload(flat_base))
        assert status == 200 and answer["results"]
    finally:
        conn.close()


def test_keep_alive_survives_delete_with_body(small_body_server, flat_base):
    """The same for a successful ``DELETE /queries/<id>``."""
    host, port = small_body_server
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        status, _, _ = _post(
            conn,
            "/queries",
            {"theta_range": 5.0, "theta_count": 3, "win": 80, "slide": 40,
             "dimensions": 2},
        )
        assert status == 200
        conn.request("DELETE", "/queries/1", body=b'{"unexpected": "body"}')
        resp = conn.getresponse()
        assert resp.status == 200
        assert json.loads(resp.read())["query"]["state"] == "stopped"
        status, _, answer = _post(conn, "/match", _match_payload(flat_base))
        assert status == 200 and answer["results"]
    finally:
        conn.close()


def test_oversized_body_beyond_drain_limit_closes_connection(
    small_body_server, monkeypatch
):
    """When the rejected body is too large to drain cheaply the server
    must advertise ``Connection: close`` instead of silently leaving a
    poisoned keep-alive socket."""
    monkeypatch.setattr(MatchRequestHandler, "drain_limit", 2048)
    host, port = small_body_server
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request(
            "POST", "/match", body=b"x" * 100_000,
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        resp.read()
        assert resp.status == 400
        assert resp.getheader("Connection") == "close"
    finally:
        conn.close()


def test_malformed_content_length_is_a_400_not_a_500(small_body_server):
    """Regression pin: ``Content-Length: banana`` used to raise
    ValueError inside the handler and surface as a 500. It is a client
    error — 400, with the connection closed (the body length is
    unknowable, so the stream cannot be re-synchronized)."""
    host, port = small_body_server
    with socket.create_connection((host, port), timeout=30) as raw:
        raw.sendall(
            b"POST /match HTTP/1.1\r\n"
            b"Host: test\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: banana\r\n"
            b"\r\n"
        )
        raw.settimeout(30)
        chunks = []
        while True:
            chunk = raw.recv(4096)
            if not chunk:
                break
            chunks.append(chunk)
        response = b"".join(chunks)
    status_line = response.split(b"\r\n", 1)[0]
    assert b"400" in status_line, response[:200]
    assert b"500" not in status_line
    assert b"connection: close" in response.lower()


def _post(conn, path, payload):
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    conn.request(
        "POST", path, body=body, headers={"Content-Type": "application/json"}
    )
    resp = conn.getresponse()
    return resp.status, resp.getheader("Connection"), json.loads(resp.read())


@contextlib.contextmanager
def _keep_alive_service(archive_path, tmp_path, backend):
    """``(service, conn)``: a threaded server on the given store backend
    and one keep-alive connection to it."""
    store = f"sqlite:{tmp_path / 'archive.db'}" if backend == "sqlite" else None
    service = MatchService.from_archive(archive_path, shards=2, store=store)
    server, host, port = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        yield service, conn
    finally:
        conn.close()
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


def _assert_refused_everywhere(conn, service, bad, reason):
    """A typed 400 naming ``reason`` on every endpoint that takes a wire
    summary, and the archive as it was."""
    before = len(service.base)
    status, _, body = _post(conn, "/ingest", {"sgs": bad, "full_size": 9})
    assert status == 400 and "bad ingest payload" in body["error"]
    assert reason in body["error"]
    query = {"sgs": bad, "threshold": 0.5}
    status, _, body = _post(conn, "/match", query)
    assert status == 400 and "bad query" in body["error"]
    status, _, body = _post(conn, "/match_many", {"queries": [query]})
    assert status == 400 and "bad query" in body["error"]
    assert len(service.base) == before


def test_every_reply_is_one_send(archive_path, tmp_path, flat_base, monkeypatch):
    """Regression pin: the head and the body of a reply used to be two
    sends through an unbuffered ``wfile``; Nagle's algorithm held the
    body until the client's delayed ACK of the head, ~40 ms per round
    trip. Each reply now reaches the socket in exactly one write."""
    sends, nodelay = [], []

    class SendCountingHandler(httpd.MatchRequestHandler):
        max_body_bytes = 256 * 1024

        def setup(self):
            super().setup()
            # On loopback a reply bigger than the buffer does not show
            # the stall reliably, so the socket option itself is pinned.
            nodelay.append(
                self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
            # Whatever writes to the socket: a buffered wfile's raw
            # stream, or the unbuffered writer itself.
            sink = getattr(self.wfile, "raw", self.wfile)
            write = sink.write

            def counted(data):
                sends.append(len(data))
                return write(data)

            sink.write = counted

    monkeypatch.setattr(httpd, "MatchRequestHandler", SendCountingHandler)
    with _keep_alive_service(archive_path, tmp_path, "memory") as (service, conn):

        def reply(method, path, body=None):
            before = len(sends)
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            resp.read()
            return resp.status, resp.getheader("Connection"), sends[before:]

        # (status, Connection header, the writes: [ANY] is exactly one)
        assert reply("POST", "/match", _match_payload(flat_base)) == (200, None, [ANY])
        # Rejected before it was read, and drained.
        assert reply("POST", "/match", b"x" * 300_000) == (400, None, [ANY])
        assert reply("POST", "/nope", b"{}") == (404, None, [ANY])
        assert reply("GET", "/stats") == (200, None, [ANY])
        # A reply bigger than the buffer leaves as a head flush plus the
        # body, and no part of it waits on a delayed ACK: ten back to
        # back spend well under the 10 x 40 ms the stall cost outside
        # the service. (An empty window range screens every candidate
        # out, so 200 queries make a big answer from little work.)
        smallest = min(flat_base.all_patterns(), key=lambda p: len(p.sgs)).sgs
        query = {"sgs": sgs_to_dict(smallest), "threshold": 0.5,
                 "window_range": [-2, -1]}
        big = json.dumps({"queries": [query] * 200}).encode("utf-8")
        service_seconds = []
        match_many = service.match_many

        def timed_match_many(payload):
            started = time.perf_counter()
            try:
                return match_many(payload)
            finally:
                service_seconds.append(time.perf_counter() - started)

        monkeypatch.setattr(service, "match_many", timed_match_many)
        status, _, writes = reply("POST", "/match_many", big)
        assert status == 200 and sum(writes) > SendCountingHandler.wbufsize
        del service_seconds[:]
        started = time.perf_counter()
        for _ in range(10):
            assert reply("POST", "/match_many", big)[0] == 200
        outside = time.perf_counter() - started - sum(service_seconds)
        assert outside < 10 * 0.040 / 2, outside
        # Too big to drain: the reply closes the connection, still one write.
        monkeypatch.setattr(SendCountingHandler, "drain_limit", 1024)
        assert reply("POST", "/match", b"x" * 300_000) == (400, "close", [ANY])
    assert nodelay and all(nodelay)


def test_stdlib_error_replies_still_arrive(small_body_server):
    """The stdlib's own ``send_error`` replies return from
    ``handle_one_request`` before its flush; ``finish`` flushes them,
    and both carry ``Connection: close``."""
    host, port = small_body_server
    for request in (
        b"PUT /match HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n",
        b"GET /a b HTTP/1.1\r\n\r\n",
    ):
        with socket.create_connection((host, port), timeout=30) as raw:
            raw.sendall(request)
            response = b"".join(iter(lambda: raw.recv(4096), b""))
        status_line = response.split(b"\r\n", 1)[0]
        assert status_line.split()[1] in (b"501", b"400"), response[:200]
        assert b"connection: close" in response.lower()


def test_interim_100_continue_is_not_held_in_the_buffer(small_body_server, flat_base):
    """A client that sends ``Expect: 100-continue`` holds its body back
    until the interim reply arrives, so that reply leaves at once."""
    host, port = small_body_server
    body = _match_payload(flat_base)
    with socket.create_connection((host, port), timeout=5) as raw:
        raw.sendall(
            b"POST /match HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\nExpect: 100-continue\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
        )
        assert raw.recv(4096).startswith(b"HTTP/1.1 100 Continue\r\n\r\n")
        raw.sendall(body)
        head = raw.recv(4096)
    assert head.startswith(b"HTTP/1.1 200 "), head[:200]


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_unstorable_connection_offset_is_a_400(
    archive_path, tmp_path, backend
):
    """Regression pin: a connection more than 127 cells from its cell
    parsed fine, then ``sgs_to_bytes`` raised inside ``engine.ingest``
    (500 on the SQLite store; the memory store accepted it and failed
    at dump time). The blob's signed-byte offset range is checked where
    wire summaries are parsed: a typed 400 on every endpoint that takes
    one, the archive untouched, the keep-alive socket still usable."""
    with _keep_alive_service(archive_path, tmp_path, backend) as (service, conn):
        good = sgs_to_dict(_query_sgs(service.base))
        bad = json.loads(json.dumps(good))
        cell = bad["cells"][0]
        cell["connections"].append([cell["location"][0] + 128, *cell["location"][1:]])
        before = len(service.base)
        _assert_refused_everywhere(conn, service, bad, "out of byte range")
        # -128 is the last storable offset; same socket, next ingest.
        cell["connections"][-1][0] = cell["location"][0] - 128
        cell["connections"].sort()
        status, _, body = _post(conn, "/ingest", {"sgs": bad, "full_size": 9})
        assert status == 200 and body["archive_size"] == before + 1
        stored = service.base.get(body["pattern_id"]).sgs
        assert sgs_to_dict(stored)["cells"] == bad["cells"]


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_out_of_range_cell_is_a_400(archive_path, tmp_path, backend):
    """Regression pin: a location component of ``2**31``, a population
    of ``2**32`` or a location of ``12.5`` parsed fine, then the cell
    head's ``struct.error`` (or a ``TypeError``) escaped ``engine.ingest``
    as a 500 — on the SQLite store only for the first two: the memory
    store took the pattern and failed at the next dump. What the head
    cannot hold is refused where wire summaries are parsed."""
    with _keep_alive_service(archive_path, tmp_path, backend) as (service, conn):
        good = sgs_to_dict(_query_sgs(service.base))
        before = len(service.base)
        for field, value in (
            ("location", [2**31, 0, 0, 0]),
            ("location", [0, -(2**31) - 1, 0, 0]),
            ("location", [12.5, 0, 0, 0]),
            ("population", 2**32),
            ("population", -1),
            ("population", 3.0),
        ):
            bad = json.loads(json.dumps(good))
            bad["cells"][0].update({field: value, "connections": []})
            _assert_refused_everywhere(conn, service, bad, "int32 location")
        # The last storable values; same socket, next ingest. (One cell:
        # the inverted index sizes its histograms by a summary's extent.)
        edge = dict(good, cells=[dict(good["cells"][0], connections=[])])
        edge["cells"][0].update(
            location=[2**31 - 1, -(2**31), 0, 0], population=2**32 - 1
        )
        status, _, body = _post(conn, "/ingest", {"sgs": edge, "full_size": 9})
        assert status == 200 and body["archive_size"] == before + 1
        stored = service.base.get(body["pattern_id"]).sgs
        assert sgs_to_dict(stored)["cells"] == edge["cells"]
        assert sgs_to_dict(sgs_from_bytes(sgs_to_bytes(stored))) == sgs_to_dict(stored)


def test_service_rejects_malformed_payloads_directly(archive_path):
    with MatchService.from_archive(archive_path) as service:
        with pytest.raises(ServiceError):
            service.match({"threshold": 0.5})
        with pytest.raises(ServiceError):
            service.match("not a dict")
        with pytest.raises(ServiceError):
            service.match_many({"queries": None})
        with pytest.raises(ServiceError):
            service.ingest({})
        with pytest.raises(ServiceError):
            service.match({"sgs": {"broken": True}, "threshold": 0.5})


def test_cli_serve_end_to_end(archive_path, flat_base):
    """The real ``repro serve`` process: persisted archive in, bound
    port printed, ingest + match over HTTP, golden answer out."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--archive", archive_path,
            "--shards", "2", "--mode", "serial", "--port", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={
            **os.environ,
            "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src"),
        },
    )
    try:
        banner = proc.stdout.readline().strip()
        bound = re.search(r"on http://([\d.]+):(\d+)$", banner)
        assert bound, f"unparseable serve banner: {banner!r}"
        client = _Client(bound.group(1), int(bound.group(2)))
        status, health = client.get("/healthz")
        assert status == 200 and health["status"] == "ok"
        assert health["archive_size"] == len(flat_base)
        sgs = _query_sgs(flat_base)
        status, ingested = client.post(
            "/ingest", {"sgs": sgs_to_dict(sgs), "full_size": 10}
        )
        assert status == 200
        status, answer = client.post(
            "/match",
            {"sgs": sgs_to_dict(sgs), "threshold": 0.5, "top_k": 5},
        )
        assert status == 200
        oracle_base = ShardedPatternBase.from_base(flat_base, 2, "window")
        oracle_base.add(sgs, 10)
        with ShardedMatchEngine(oracle_base, mode="serial") as oracle:
            expected, _ = oracle.match(
                MatchQuery(
                    sgs=sgs, threshold=0.5, top_k=5, metric=oracle.spec
                )
            )
        assert [
            (r["pattern_id"], r["distance"]) for r in answer["results"]
        ] == [(r.pattern.pattern_id, r.distance) for r in expected]
    finally:
        proc.terminate()
        proc.wait(timeout=10)
