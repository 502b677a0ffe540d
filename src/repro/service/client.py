"""Stdlib (urllib) client for the partitioning service.

:class:`ServiceClient` is what ``repro submit``, the load-test harness
and the service tests speak; it mirrors the HTTP surface one method per
route and converts ``{"error": ...}`` envelopes back into
:class:`~repro.service.broker.ServiceError` — callers see the same
exception type on both sides of the wire.

Two client-side robustness contracts live here:

* **Fail fast** — every request carries a finite socket timeout (urllib
  would otherwise block forever on a hung server), and the ``wait``
  long-poll is chunked into :data:`POLL_CAP`-second legs so a stalled
  connection surfaces as an error within one leg, not never.
* **Backpressure** — a 429 from the broker's admission control is not an
  error but a "later, please": the client retries with jittered
  exponential backoff (:data:`BACKOFF_BASE` doubling up to
  :data:`BACKOFF_CAP` seconds), honouring the server's ``Retry-After`` as
  the delay floor, until the ``retry_budget`` (total seconds of backoff)
  is spent — at which point the 429 propagates to the caller.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, List, Optional

from .broker import ServiceError

#: First 429 backoff delay (seconds); each retry doubles it.
BACKOFF_BASE = 0.05

#: Longest single 429 backoff delay (seconds) before jitter.
BACKOFF_CAP = 2.0

#: Longest single ``wait`` long-poll leg (seconds).
POLL_CAP = 30.0


class ServiceClient:
    """Thin blocking client for one service base URL.

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
        self.timeout = timeout
        self.retry_budget = retry_budget
        #: 429-backoff retries performed (telemetry; the load test
        #: asserts backpressure was actually exercised through here).
        self.retries = 0

    # -- transport -------------------------------------------------------------

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
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout or self.timeout
            ) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raise self._as_service_error(exc) from None

    @staticmethod
    def _as_service_error(exc: urllib.error.HTTPError) -> ServiceError:
        retry_after: Optional[float] = None
        try:
            raw = exc.headers.get("Retry-After") if exc.headers else None
            if raw is not None:
                retry_after = float(raw)
        except (TypeError, ValueError):
            retry_after = None
        try:
            payload = json.loads(exc.read().decode("utf-8"))
            error = payload["error"]
            if "retry_after" in error:
                # The body carries the broker's exact float; the header
                # is the same value ceiled to whole seconds (HTTP spec).
                retry_after = float(error["retry_after"])
            return ServiceError(
                exc.code, error["code"], error["message"],
                fields=tuple(error.get("fields", ())),
                retry_after=retry_after,
            )
        except ServiceError:
            raise
        except Exception:  # noqa: BLE001 - non-JSON error body
            return ServiceError(
                exc.code, "http_error", str(exc), retry_after=retry_after
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
        request = urllib.request.Request(
            f"{self.base_url}/v1/jobs/{job_id}/events{query}",
            headers={"Accept": "application/x-ndjson"},
        )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout + 10.0
            ) as response:
                for line in response:
                    line = line.strip()
                    if line:
                        yield json.loads(line.decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raise self._as_service_error(exc) from None

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
