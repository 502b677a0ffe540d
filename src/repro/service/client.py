"""Stdlib (``http.client``) client for the partitioning service.

:class:`ServiceClient` is what ``repro submit``, the load-test harness
and the service tests speak; it mirrors the HTTP surface one method per
route and converts ``{"error": ...}`` envelopes back into
:class:`~repro.service.broker.ServiceError` — callers see the same
exception type on both sides of the wire.

Each thread that uses a client keeps one HTTP/1.1 connection to the
server and sends every request on it, the NDJSON event stream included
(the server closes the connection after a stream, and the next request
opens a new one).  A warm job is two requests, so reusing the connection
saves a TCP handshake and a server thread per request.  :meth:`close`
(or leaving a ``with`` block) closes every thread's connection.

Three client-side robustness contracts live here:

* **Fail fast** — every request carries a finite socket timeout (a
  socket would otherwise block forever on a hung server), and the
  ``wait`` long-poll is chunked into :data:`POLL_CAP`-second legs so a
  stalled connection surfaces as an error within one leg, not never.
* **Stale connections** — a server may close a kept-alive connection
  while it sits idle.  A request that fails on a connection that had
  already served one, before any response byte arrived, is sent once
  more on a fresh connection.  Every other failure raises.
* **Backpressure** — a 429 from the broker's admission control is not an
  error but a "later, please": the client retries with jittered
  exponential backoff (:data:`BACKOFF_BASE` doubling up to
  :data:`BACKOFF_CAP` seconds), honouring the server's ``Retry-After`` as
  the delay floor, until the ``retry_budget`` (total seconds of backoff)
  is spent — at which point the 429 propagates to the caller.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from .broker import ServiceError

#: First 429 backoff delay (seconds); each retry doubles it.
BACKOFF_BASE = 0.05

#: Longest single 429 backoff delay (seconds) before jitter.
BACKOFF_CAP = 2.0

#: Longest single ``wait`` long-poll leg (seconds).
POLL_CAP = 30.0


class ServiceClient:
    """Thin blocking client for one service base URL, safe to share
    between threads (each gets its own connection).

    ``timeout`` is the per-request socket timeout (must be finite —
    hanging forever is the failure mode this client exists to avoid);
    ``retry_budget`` bounds the total 429 backoff.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retry_budget: float = 60.0,
    ):
        if timeout is None or timeout <= 0:
            raise ValueError("timeout must be a positive number of seconds")
        self.base_url = base_url.rstrip("/")
        scheme, _, rest = self.base_url.partition("://")
        if scheme != "http":
            raise ValueError(f"the service speaks http, not {base_url!r}")
        self._netloc, slash, path = rest.partition("/")
        self._prefix = slash + path
        self.timeout = timeout
        self.retry_budget = retry_budget
        #: 429-backoff retries performed (telemetry; the load test
        #: asserts backpressure was actually exercised through here).
        self.retries = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: List[http.client.HTTPConnection] = []

    def close(self) -> None:
        """Close every thread's connection; a later request opens a new
        one."""
        with self._lock:
            connections, self._connections = self._connections, []
            self._local = threading.local()
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- transport -------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection (not yet connected the first time)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self._netloc, timeout=self.timeout
            )
            with self._lock:
                self._local.connection = connection
                self._connections.append(connection)
        return connection

    @contextmanager
    def _response(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Dict[str, str],
        timeout: float,
    ) -> Iterator[http.client.HTTPResponse]:
        """Send one request on this thread's connection and yield its
        response (status and headers read).  The caller reads the body
        inside the block; a failure there closes the connection."""
        for retry in (False, True):
            connection = self._connection()
            reused = connection.sock is not None
            try:
                if connection.sock is None:
                    connection.connect()
                connection.sock.settimeout(timeout)
                connection.request(
                    method, self._prefix + path, body=body, headers=headers
                )
                # Wait for the first response byte without taking it: a
                # failure before it means no server answered at all.
                if not connection.sock.recv(1, socket.MSG_PEEK):
                    raise http.client.RemoteDisconnected(
                        "server closed the connection without a response"
                    )
            except ConnectionError:
                connection.close()
                if reused and not retry:
                    continue
                raise
            except BaseException:
                connection.close()
                raise
            break
        try:
            yield connection.getresponse()
        except BaseException:
            connection.close()
            raise

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """One request, with the 429 backoff loop wrapped around it."""
        budget = self.retry_budget
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, body, timeout)
            except ServiceError as exc:
                if exc.status != 429:
                    raise
                delay = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** attempt))
                # Full jitter (0.5x-1.5x) decorrelates a thundering herd
                # of retrying clients; Retry-After is the floor.
                delay *= 0.5 + random.random()
                if exc.retry_after is not None:
                    delay = max(delay, exc.retry_after)
                if delay > budget:
                    raise
                budget -= delay
                attempt += 1
                self.retries += 1
                time.sleep(delay)

    def _request_once(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        with self._response(
            method, path, data, headers, timeout or self.timeout
        ) as response:
            raw = response.read()
        if response.status >= 400:
            raise self._as_service_error(response, raw)
        return json.loads(raw.decode("utf-8"))

    @staticmethod
    def _as_service_error(
        response: http.client.HTTPResponse, raw: bytes
    ) -> ServiceError:
        retry_after: Optional[float] = None
        try:
            header = response.getheader("Retry-After")
            if header is not None:
                retry_after = float(header)
        except (TypeError, ValueError):
            retry_after = None
        try:
            payload = json.loads(raw.decode("utf-8"))
            error = payload["error"]
            if "retry_after" in error:
                # The body carries the broker's exact float; the header
                # is the same value ceiled to whole seconds (HTTP spec).
                retry_after = float(error["retry_after"])
            return ServiceError(
                response.status, error["code"], error["message"],
                fields=tuple(error.get("fields", ())),
                retry_after=retry_after,
            )
        except Exception:  # noqa: BLE001 - non-JSON error body
            return ServiceError(
                response.status, "http_error",
                f"HTTP Error {response.status}: {response.reason}",
                retry_after=retry_after,
            )

    # -- routes ----------------------------------------------------------------

    def submit(
        self,
        source: Optional[str] = None,
        bench: Optional[str] = None,
        name: Optional[str] = None,
        config: Optional[Dict[str, Any]] = None,
        tenant: str = "default",
        priority: int = 0,
    ) -> Dict[str, Any]:
        """POST one job; returns the job descriptor (``coalesced_onto``
        tells whether it folded onto an in-flight duplicate).  A 429
        rejection is retried with backoff (see class docstring) — safe
        because submission is idempotent under coalescing."""
        body: Dict[str, Any] = {"tenant": tenant, "priority": priority}
        if source is not None:
            body["source"] = source
        if bench is not None:
            body["bench"] = bench
        if name is not None:
            body["name"] = name
        if config is not None:
            body["config"] = config
        return self._request("POST", "/v1/jobs", body)

    def job(self, job_id: str, wait: float = 0.0) -> Dict[str, Any]:
        suffix = f"?wait={wait:g}" if wait > 0 else ""
        return self._request(
            "GET", f"/v1/jobs/{job_id}{suffix}",
            timeout=self.timeout + wait,
        )

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def events(
        self, job_id: str, follow: bool = False, since: int = 0,
        timeout: Optional[float] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Yield the job's NDJSON events (blocking when ``follow``)."""
        timeout = self.timeout if timeout is None else timeout
        query = f"?since={since}"
        if follow:
            query += f"&follow=1&timeout={timeout:g}"
        with self._response(
            "GET", f"/v1/jobs/{job_id}/events{query}", None,
            {"Accept": "application/x-ndjson"}, timeout + 10.0,
        ) as response:
            if response.status >= 400:
                raise self._as_service_error(response, response.read())
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))

    def wait(self, job_id: str, timeout: float = 300.0) -> Dict[str, Any]:
        """Poll until the job is terminal; returns the final descriptor.

        Each long-poll leg is capped at :data:`POLL_CAP` seconds, so a
        wedged connection costs one leg, never the whole timeout."""
        from .jobs import TERMINAL_STATES

        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            descriptor = self.job(
                job_id, wait=max(0.0, min(remaining, POLL_CAP))
            )
            if descriptor["state"] in TERMINAL_STATES:
                return descriptor
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {descriptor['state']} after "
                    f"{timeout:g}s"
                )

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel", {})

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/stats")

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/healthz")

    def shutdown(self, drain: bool = False) -> Dict[str, Any]:
        suffix = "?drain=1" if drain else ""
        return self._request("POST", f"/v1/shutdown{suffix}", {})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<service client {self.base_url}>"
