"""JSON-over-HTTP front end for :class:`MatchService` — stdlib only.

``repro serve`` binds a :class:`http.server.ThreadingHTTPServer` whose
handler dispatches to one shared :class:`~repro.serving.service.\
MatchService`:

========  =============  ====================================
method    path           body / answer
========  =============  ====================================
GET       /healthz       liveness ``{"status": "ok", ...}``
GET       /stats         archive + serving configuration
POST      /ingest        ``{"sgs": <sgs dict>, "full_size"}``
POST      /match         a wire-form match query
POST      /match_many    ``{"queries": [<query>, ...]}``
POST      /queries       register a clustering query
POST      /stream        feed objects to registered queries
DELETE    /queries/<id>  unregister query ``<id>``
========  =============  ====================================

Bodies and answers are JSON; a malformed request answers 400 with
``{"error": ...}``, an unknown path 404, a handler crash 500. The
server threads only decode and encode here — every operation runs
under the service's own lock, so threading the HTTP layer costs no
determinism.

Every reply accounts for the request body it did not read, so the
HTTP/1.1 keep-alive stream is never poisoned: a body that was rejected
before it was read (oversized, unknown path) or that the endpoint takes
no body for (``GET``, ``DELETE``) is drained — bounded by
:data:`DRAIN_LIMIT_BYTES` — so the next request on the same socket
starts at a request line, and when draining is unreasonable (body too
large, or a malformed ``Content-Length`` that leaves the stream
unparseable) the reply carries ``Connection: close`` instead.

A reply leaves in one write. With the stdlib's default unbuffered
``wfile`` the head and the body were two sends: Nagle's algorithm held
the body until the client acknowledged the head, and the client delays
that ACK by ~40 ms, so every round trip paid ~40 ms of idle wait on top
of its match. ``wbufsize`` collects the status line, headers and body
in one buffer, which ``handle_one_request`` flushes after each
``do_*`` (and ``finish`` on close, so the stdlib's own ``send_error``
replies still arrive). A reply bigger than the buffer leaves as a head
flush plus a direct body write; ``disable_nagle_algorithm`` sets
``TCP_NODELAY`` so that body never waits on the head's ACK either.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Tuple

from repro.serving.service import MatchService, ServiceError

__all__ = ["MatchRequestHandler", "make_server"]

#: Largest accepted request body, a guard against runaway posts.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Largest unread body an error reply will drain to keep the
#: connection reusable; anything bigger closes the connection instead.
DRAIN_LIMIT_BYTES = 1024 * 1024


class MatchRequestHandler(BaseHTTPRequestHandler):
    """Routes the service endpoints; JSON in, JSON out."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    #: One reply, one send: see the module docstring.
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True
    #: Class attributes, not module constants, so deployments (and the
    #: regression tests) can tighten them per handler.
    max_body_bytes = MAX_BODY_BYTES
    drain_limit = DRAIN_LIMIT_BYTES

    @property
    def service(self) -> MatchService:
        return self.server.service  # attached by make_server

    def log_message(self, format, *args):  # quiet by default; the CLI
        pass  # announces the bound address once instead.

    def handle_expect_100(self) -> bool:
        # The interim reply must leave now, not at the final flush: the
        # client holds the body back until it sees it.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def _reply(self, status: int, payload) -> None:
        """Answer without corrupting the keep-alive stream: drain the
        unread body (bounded) so the socket stays reusable, or close the
        connection when the stream can't be resynced."""
        body = json.dumps(payload).encode("utf-8")
        unread = self._unread_body
        close = unread is None or unread > self.drain_limit
        if not close and unread:
            self.rfile.read(unread)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            # send_header("Connection", "close") also flips
            # self.close_connection, so the server really hangs up.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _declared_body_length(self):
        """The request's declared body length: an int, or ``None`` when
        the Content-Length header is non-numeric (the stream position
        of the next request is then unknowable)."""
        raw = self.headers.get("Content-Length")
        if raw is None:
            return 0
        try:
            return max(0, int(raw))
        except ValueError:
            return None

    def _read_json(self):
        length = self._unread_body
        if length is None:
            raise ServiceError(
                "malformed Content-Length header "
                f"{self.headers.get('Content-Length')!r}"
            )
        if length <= 0:
            raise ServiceError("request body is required")
        if length > self.max_body_bytes:
            raise ServiceError("request body too large")
        data = self.rfile.read(length)
        self._unread_body = 0
        try:
            return json.loads(data)
        except ValueError as error:  # bad JSON, or bytes that are no UTF
            raise ServiceError(f"malformed JSON body: {error}") from None

    def _dispatch(self, handler, with_body: bool) -> None:
        """Answer with ``handler`` (``None``: unknown path, 404), which
        takes the parsed JSON body when ``with_body``."""
        # Until _read_json consumes it, the declared body is pending on
        # the socket; every reply must account for it.
        self._unread_body = self._declared_body_length()
        if handler is None:
            self._reply(404, {"error": f"unknown path {self.path}"})
            return
        try:
            answer = handler(self._read_json()) if with_body else handler()
            self._reply(200, answer)
        except ServiceError as error:
            self._reply(400, {"error": str(error)})
        except Exception as error:  # a crash must answer, not hang the
            # client: the connection is keep-alive under HTTP/1.1.
            self._reply(500, {"error": f"{type(error).__name__}: {error}"})

    def do_GET(self) -> None:
        routes = {"/healthz": self.service.healthz, "/stats": self.service.stats}
        self._dispatch(routes.get(self.path), with_body=False)

    def do_POST(self) -> None:
        routes = {
            "/ingest": self.service.ingest,
            "/match": self.service.match,
            "/match_many": self.service.match_many,
            "/queries": self.service.register_query,
            "/stream": self.service.stream,
        }
        self._dispatch(routes.get(self.path), with_body=True)

    def do_DELETE(self) -> None:
        prefix = "/queries/"
        handler = None
        if self.path.startswith(prefix):
            query_id = self.path[len(prefix):]
            handler = lambda: self.service.unregister_query(query_id)
        self._dispatch(handler, with_body=False)


def make_server(
    service: MatchService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> Tuple[ThreadingHTTPServer, str, int]:
    """Bind the service; returns ``(server, host, bound_port)``.

    ``port=0`` lets the OS pick a free port — the caller reads the
    bound one back (the CLI prints it; tests parse it). Call
    ``server.serve_forever()`` to run and ``server.shutdown()`` +
    ``server.server_close()`` to stop.
    """
    server = ThreadingHTTPServer((host, port), MatchRequestHandler)
    server.daemon_threads = True
    server.service = service
    bound_host, bound_port = server.server_address[:2]
    return server, str(bound_host), int(bound_port)
