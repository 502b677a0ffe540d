#!/usr/bin/env python
"""Load test for the partitioning service (stdlib only).

Fires ``--submissions`` requests (a mixed program x scheme matrix with
heavy duplication) at a service from ``--threads`` concurrent client
threads, waits for every job to reach a terminal state, and then checks
the books:

* **zero lost / duplicated jobs** — every submission is accounted for
  exactly once: ``submissions == sum(1 + coalesced)`` over the created
  jobs, and the distinct cells map to exactly that many executions;
* **dedupe actually worked** — duplicates were absorbed by request
  coalescing (in-flight) or the artifact cache (completed), so at least
  ``submissions - distinct`` of them never computed anything;
* **every job completed** — ``done`` (or ``degraded``, which still
  yields a result) — the server survived the whole burst;
* **no submitter thread died** — an unexpected exception in a pump
  thread fails the run with a nonzero exit instead of being silently
  swallowed by ``join()``;
* with ``--max-depth N``: **backpressure was exercised** — the bounded
  queue served real 429s and the client's jittered backoff absorbed all
  of them, with the zero-lost invariant still holding.

By default the harness starts a throwaway in-process server on an
ephemeral port with a temporary cache dir; pass ``--url`` to aim at an
already-running ``repro serve`` instead.  The summary is printed as JSON
(machine readable, like ``repro cache stats --format json``); exit code
0 means every assertion held.

Usage::

    PYTHONPATH=src python scripts/loadtest.py
    PYTHONPATH=src python scripts/loadtest.py --submissions 500 --threads 32
    PYTHONPATH=src python scripts/loadtest.py --url http://127.0.0.1:8642
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List

from repro.exec.engine import SWEEP_SCHEMES

PROGRAMS = {
    "ltfir": """
int N = 16;
int x[16];
int y[16];
int c[4];
int main() {
  int i; int j; int acc;
  for (i = 0; i < 4; i = i + 1) { c[i] = i + 1; }
  for (i = 0; i < N; i = i + 1) { x[i] = i * 3 % 17; }
  for (i = 0; i < N - 4; i = i + 1) {
    acc = 0;
    for (j = 0; j < 4; j = j + 1) { acc = acc + x[i + j] * c[j]; }
    y[i] = acc;
  }
  print_int(y[5]);
  return 0;
}
""",
    "lthist": """
int N = 24;
int data[24];
int hist[8];
int main() {
  int i;
  for (i = 0; i < N; i = i + 1) { data[i] = (i * 7 + 3) % 8; }
  for (i = 0; i < N; i = i + 1) { hist[data[i]] = hist[data[i]] + 1; }
  print_int(hist[3]);
  return 0;
}
""",
}

def build_requests(submissions: int, tenants: int) -> List[Dict[str, Any]]:
    cells = [
        (name, source, scheme)
        for name, source in sorted(PROGRAMS.items())
        for scheme in SWEEP_SCHEMES
    ]
    return [
        {
            "name": cells[i % len(cells)][0],
            "source": cells[i % len(cells)][1],
            "config": {"scheme": cells[i % len(cells)][2]},
            "tenant": f"tenant{i % tenants}",
        }
        for i in range(submissions)
    ], len(cells)


def run_load(client, requests, threads: int):
    replies: List[Dict[str, Any]] = []
    errors: List[str] = []
    fatal: List[str] = []
    lock = threading.Lock()

    def pump(chunk):
        # The outer try is the thread's own supervision: a bug that
        # escapes the per-request handling below must fail the harness
        # loudly (a crashed submitter thread silently swallowed by
        # join() used to *understate* the load and pass anyway).
        try:
            for request in chunk:
                try:
                    reply = client.submit(**request)
                except Exception as exc:  # noqa: BLE001 - counted, not fatal
                    with lock:
                        errors.append(f"{type(exc).__name__}: {exc}")
                    continue
                with lock:
                    replies.append(reply)
        except BaseException as exc:  # noqa: BLE001 - thread supervision
            with lock:
                fatal.append(f"{type(exc).__name__}: {exc}")
            raise

    pool = [
        threading.Thread(target=pump, args=(requests[i::threads],))
        for i in range(threads)
    ]
    started = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    submit_seconds = time.perf_counter() - started
    return replies, errors, fatal, submit_seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default=None,
                        help="target a running server (default: start a "
                        "throwaway in-process one)")
    parser.add_argument("--submissions", type=int, default=200)
    parser.add_argument("--threads", type=int, default=16)
    parser.add_argument("--tenants", type=int, default=5)
    parser.add_argument("--workers", type=int, default=4,
                        help="worker threads for the in-process server")
    parser.add_argument("--max-depth", type=int, default=None,
                        help="bound the in-process server's queue depth: "
                        "excess submissions get 429 + Retry-After and the "
                        "client retries with backoff (the backpressure "
                        "proof; requires the in-process server)")
    parser.add_argument("--timeout", type=float, default=600.0)
    args = parser.parse_args(argv)

    from repro.exec import RunConfig
    from repro.service import Broker, ServiceClient, ServiceServer

    server = None
    if args.url is None:
        cache_dir = tempfile.mkdtemp(prefix="repro-loadtest-")
        server = ServiceServer(
            broker=Broker(
                config=RunConfig(cache_dir=cache_dir, jobs=1),
                workers=args.workers,
                max_depth=args.max_depth,
            ),
            port=0,
        ).start()
    elif args.max_depth is not None:
        parser.error("--max-depth configures the in-process server; "
                     "it cannot apply to an external --url")
    client = ServiceClient(
        args.url if server is None else server.url,
        timeout=args.timeout, retry_budget=args.timeout,
    )
    url = client.base_url

    try:
        requests, distinct = build_requests(args.submissions, args.tenants)
        replies, errors, fatal, submit_seconds = run_load(
            client, requests, args.threads
        )

        job_ids = sorted({reply["id"] for reply in replies})
        wait_started = time.perf_counter()
        finals = {jid: client.wait(jid, timeout=args.timeout)
                  for jid in job_ids}
        drain_seconds = time.perf_counter() - wait_started

        coalesced = sum(final["coalesced"] for final in finals.values())
        accounted = len(finals) + coalesced
        states: Dict[str, int] = {}
        for final in finals.values():
            states[final["state"]] = states.get(final["state"], 0) + 1
        warm_hits = sum(
            1 for final in finals.values()
            if (final.get("cache") or {}).get("outcome") == "hit"
        )
        stats = client.stats()

        lost = len(replies) - accounted
        deduped = coalesced + warm_hits
        checks = {
            "all_submissions_accepted":
                len(replies) == args.submissions and not errors,
            "zero_lost_or_duplicated": lost == 0,
            "all_jobs_completed":
                states.get("done", 0) + states.get("degraded", 0)
                == len(finals),
            "duplicates_deduped":
                deduped >= args.submissions - distinct,
            "no_thread_deaths": not fatal,
        }
        if args.max_depth is not None:
            # The cap must actually have pushed back (429s served) and
            # the client's backoff must have absorbed every one of them
            # (already implied by all_submissions_accepted + zero_lost).
            checks["backpressure_exercised"] = (
                stats["admission"]["rejected_depth"] > 0
                and client.retries > 0
            )
        summary = {
            "url": url,
            "submissions": args.submissions,
            "threads": args.threads,
            "distinct_cells": distinct,
            "accepted": len(replies),
            "errors": errors[:5],
            "thread_deaths": fatal[:5],
            "client_429_retries": client.retries,
            "jobs_created": len(finals),
            "coalesced": coalesced,
            "coalesce_ratio": stats["coalesce_ratio"],
            "warm_outcome_hits": warm_hits,
            "states": dict(sorted(states.items())),
            "submit_seconds": round(submit_seconds, 3),
            "drain_seconds": round(drain_seconds, 3),
            "submissions_per_second": round(
                args.submissions / max(submit_seconds, 1e-9), 1
            ),
            "server_stats": {
                "jobs": stats["jobs"],
                "queue": stats["queue"],
                "admission": stats["admission"],
                "cache_session": stats["cache"]["session"],
                "cache_hit_ratio": stats["cache"]["hit_ratio"],
            },
            "checks": checks,
        }
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0 if all(checks.values()) else 1
    finally:
        client.close()
        if server is not None:
            server.stop()


if __name__ == "__main__":
    sys.exit(main())
