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
import urllib.error
import urllib.request

import pytest

from tests.golden.workload import build_sharded_v3_archive
from repro.archive.persistence import dump_pattern_base
from repro.core.serialize import sgs_from_bytes, sgs_to_bytes, sgs_to_dict
from repro.retrieval import (
    MatchQuery,
    ShardedMatchEngine,
    ShardedPatternBase,
)
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
    request = urllib.request.Request(
        client.root + "/match",
        data=b"this is not json",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            status = resp.status
    except urllib.error.HTTPError as error:
        status = error.code
    assert status == 400


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
