"""Stdlib HTTP front end for the partitioning service.

One :class:`ServiceServer` wraps a :class:`~repro.service.broker.Broker`
behind ``http.server.ThreadingHTTPServer`` — no runtime dependencies,
one thread per connection, which is exactly right for a job server whose
requests are either instant (submit, poll, stats) or deliberately
long-lived (the NDJSON event follow).

Connections are HTTP/1.1 keep-alive: a client sends request after
request on one connection, served in turn by that connection's thread.
So every POST route reads its whole body (a leftover byte would be read
as the start of the next request), and a body that is too large or
cannot be read is answered with ``Connection: close``.  The NDJSON
stream also closes its connection when it ends.  Stopping the server
closes every kept-alive connection, so a client of a stopped server
gets a connection error, never an answer from a lingering thread.

Routes (all JSON; errors use ``{"error": {code, message, fields}}``):

========  ==========================  =======================================
POST      ``/v1/jobs``                submit ``{source|bench, config?,
                                      tenant?, priority?}`` → job descriptor
                                      (201 created / 200 coalesced)
GET       ``/v1/jobs``                job index (id, state, bench, tenant)
GET       ``/v1/jobs/{id}``           full job descriptor (``?wait=SECS``
                                      blocks until terminal or timeout)
GET       ``/v1/jobs/{id}/events``    NDJSON event stream; ``?follow=1``
                                      keeps the connection open until the
                                      job is terminal, ``?since=N`` resumes
                                      from sequence N
POST      ``/v1/jobs/{id}/cancel``    cancel a still-queued job
GET       ``/v1/stats``               broker + queue + cache counters
GET       ``/v1/healthz``             liveness (always 200 while serving)
POST      ``/v1/shutdown``            graceful stop; ``?drain=1`` finishes
                                      or journal-parks admitted work first
========  ==========================  =======================================
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Set, Tuple
from urllib.parse import parse_qs, urlparse

from .broker import Broker, ServiceError

#: Submissions larger than this are refused outright (a MiniC program is
#: kilobytes; anything bigger is a mistake or abuse).
MAX_BODY_BYTES = 1 << 20

#: Server-side cap (seconds) on one ``?wait=`` long-poll; clients re-poll.
MAX_WAIT = 300.0


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    #: The stdlib default backlog (5) drops connections under a
    #: concurrent submission burst; the load test drives hundreds.
    request_queue_size = 128

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """End every open connection once its current reply is sent: an
        idle one's thread reads end-of-file and closes it."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass


class _Handler(BaseHTTPRequestHandler):
    """Request handler; ``server.service`` is the owning ServiceServer."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service"
    #: A reply is written in pieces (status line and headers, then the
    #: body); with Nagle on, the body waits for the client's delayed ACK
    #: of the headers on a kept-alive connection, ~40 ms a request.
    disable_nagle_algorithm = True

    # -- plumbing --------------------------------------------------------------

    @property
    def broker(self) -> Broker:
        return self.server.service.broker  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.service.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        close: bool = False,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if close or self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, exc: ServiceError) -> None:
        headers = None
        if exc.retry_after is not None:
            # RFC 7231 Retry-After is delta-seconds (an integer); round
            # up so a client honouring only the header never retries
            # before the broker's own hint.
            headers = {"Retry-After": str(max(1, int(-(-exc.retry_after // 1))))}
        self._send_json(exc.status, exc.to_dict(), headers=headers)

    def _read_body(self) -> bytes:
        """The whole request body, read off the connection so the next
        request starts where this one ends.  A body this will not read
        closes the connection after the error reply."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise ServiceError(
                413, "body_too_large",
                f"request body exceeds {MAX_BODY_BYTES} bytes",
            )
        if length < 0 or "Transfer-Encoding" in self.headers:
            self.close_connection = True
            raise ServiceError(
                400, "invalid_request",
                "a request body needs a Content-Length",
            )
        return self.rfile.read(length) if length else b""

    @staticmethod
    def _json(raw: bytes) -> Any:
        if not raw:
            return {}
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(
                400, "invalid_json", f"request body is not JSON: {exc}"
            ) from None

    @staticmethod
    def _number(query: Dict[str, Any], key: str, default: float) -> float:
        raw = query.get(key)
        if raw in (None, ""):
            return default
        try:
            return float(raw)
        except ValueError:
            raise ServiceError(
                400, "invalid_query", f"query parameter {key!r} must be a "
                f"number, got {raw!r}", fields=(key,),
            ) from None

    def _route(self) -> Tuple[str, Dict[str, Any]]:
        parsed = urlparse(self.path)
        query = {
            key: values[-1]
            for key, values in parse_qs(parsed.query).items()
        }
        return parsed.path.rstrip("/") or "/", query

    # -- verbs -----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path, query = self._route()
        try:
            if path == "/v1/healthz":
                self._send_json(200, {
                    "status": "ok",
                    "workers_alive": self.broker.workers_alive(),
                })
            elif path == "/v1/stats":
                self._send_json(200, self.broker.stats())
            elif path == "/v1/jobs":
                self._send_json(200, {
                    "jobs": [
                        {
                            "id": job.id, "state": job.state,
                            "bench": job.bench, "tenant": job.tenant,
                        }
                        for job in self.broker.jobs()
                    ]
                })
            elif path.startswith("/v1/jobs/") and path.endswith("/events"):
                self._stream_events(path[len("/v1/jobs/"):-len("/events")]
                                    .strip("/"), query)
            elif path.startswith("/v1/jobs/"):
                job = self.broker.get(path[len("/v1/jobs/"):])
                wait = self._number(query, "wait", 0.0)
                if wait > 0:
                    job.wait(timeout=min(wait, MAX_WAIT))
                self._send_json(200, job.to_dict(include_events=True))
            else:
                raise ServiceError(404, "not_found", f"no route {path!r}")
        except ServiceError as exc:
            self._send_error(exc)

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path, query = self._route()
        try:
            body = self._read_body()
            if path == "/v1/jobs":
                job, created = self.broker.submit(self._json(body))
                payload = job.to_dict()
                payload["coalesced_onto"] = not created
                self._send_json(201 if created else 200, payload)
            elif path.startswith("/v1/jobs/") and path.endswith("/cancel"):
                job_id = path[len("/v1/jobs/"):-len("/cancel")].strip("/")
                job = self.broker.cancel(job_id)
                self._send_json(200, job.to_dict())
            elif path == "/v1/shutdown":
                drain = query.get("drain") in ("1", "true", "yes")
                self._send_json(
                    200, {"status": "stopping", "drain": drain}, close=True
                )
                self.server.service.request_shutdown(drain=drain)  # type: ignore[attr-defined]
            else:
                raise ServiceError(404, "not_found", f"no route {path!r}")
        except ServiceError as exc:
            self._send_error(exc)

    # -- the NDJSON stream -----------------------------------------------------

    def _stream_events(self, job_id: str, query: Dict[str, Any]) -> None:
        job = self.broker.get(job_id)
        follow = query.get("follow") in ("1", "true", "yes")
        since = int(self._number(query, "since", 0))
        timeout = self._number(query, "timeout", 300.0)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        # Chunked-free streaming: the connection closes when the stream
        # ends, which is the NDJSON framing clients expect.
        self.send_header("Connection", "close")
        self.end_headers()
        if follow:
            events = job.follow_events(timeout=timeout)
        else:
            events = iter(job.snapshot_events(since=since))
        for event in events:
            if event["seq"] < since:
                continue
            line = json.dumps(event, sort_keys=True) + "\n"
            try:
                self.wfile.write(line.encode("utf-8"))
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                return
        self.close_connection = True


class ServiceServer:
    """The serving process: broker + threaded HTTP listener.

    ``port=0`` binds an ephemeral port (the resolved one is in
    :attr:`port` after construction) — the form every test and the
    check.sh service stage use, so nothing collides in CI.
    """

    def __init__(
        self,
        broker: Broker,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ):
        self.broker = broker
        self.verbose = verbose
        self._httpd = _Server((host, port), _Handler)
        self._httpd.service = self  # type: ignore[attr-defined]
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ServiceServer":
        """Serve on a background thread (returns immediately)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until shutdown is requested."""
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self.stop()

    def request_shutdown(self, drain: bool = False) -> None:
        """Asynchronous graceful stop (the ``POST /v1/shutdown`` path and
        the CLI's SIGTERM handler): the listener winds down off-thread so
        the triggering request can still be answered.  ``drain=True``
        lets the broker finish (or journal-park) admitted work first."""
        threading.Thread(
            target=self.stop, kwargs={"drain": drain}, daemon=True
        ).start()

    def stop(self, drain: bool = False) -> None:
        """Stop listening, drain the broker, join the workers."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        # Admission stops before the listener does: an in-flight submit
        # that beats the socket teardown gets a structured 503 instead
        # of a connection reset.
        self.broker._stopping = True
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd.close_connections()
        self.broker.shutdown(wait=True, drain=drain)
        if self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=5.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<service server {self.url} {self.broker!r}>"
