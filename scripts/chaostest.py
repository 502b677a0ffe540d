#!/usr/bin/env python
"""Chaos harness for the durable partitioning service (stdlib only).

Three phases, each with explicit pass/fail checks:

1. **Baseline** — an uninterrupted ``repro serve`` run over a mixed
   program x scheme matrix (including a slice of ``raise:worker@1``
   jobs, so worker crashes + requeues are part of the "normal" run).
   The per-cell result projections are the golden answers.
2. **Crash** — a fresh server with ``--journal``, the same submission
   mix fired from concurrent threads, and a killer thread that
   ``SIGKILL``s the *server process* once enough submissions are acked.
   The server is restarted on the same journal + cache directories; the
   harness then asserts **zero lost jobs** (every job id acked before
   the kill recovers and reaches ``done``/``degraded``) and that the
   final per-cell results are **byte-identical** to the baseline.
3. **Corruption** — random bytes are flipped inside stored artifact
   entries; re-running the cells must detect the damage (digest
   verification), quarantine the corrupt files, recompute bit-identical
   results, and ``repro cache stats --format json`` must report a
   nonzero quarantine count — with exit code 0 throughout.

Usage::

    PYTHONPATH=src python scripts/chaostest.py                # full (>=100 jobs)
    PYTHONPATH=src python scripts/chaostest.py --short        # CI smoke
    PYTHONPATH=src python scripts/chaostest.py --submissions 200 --threads 12

Exit code 0 means every check in every phase held.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

SCRIPTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(SCRIPTS_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
if SRC_DIR not in sys.path:
    sys.path.insert(0, SRC_DIR)

from repro.exec.engine import SWEEP_SCHEMES  # noqa: E402

PROGRAMS = {
    "chfir": """
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
    "chhist": """
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

#: Every WORKER_CRASH_EVERY-th distinct cell also runs as a variant whose
#: first attempt loses its worker (``raise:worker@1``): the requeue path
#: is chaos-tested in both the baseline and the crash run.
WORKER_CRASH_EVERY = 4
WORKER_CRASH_SPEC = "seed=3;raise:worker@1"


def build_requests(
    submissions: int, tenants: int
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """(requests, cells): the submission mix and its distinct cells."""
    cells: List[Dict[str, Any]] = []
    index = 0
    for name, source in sorted(PROGRAMS.items()):
        for scheme in SWEEP_SCHEMES:
            cells.append({
                "name": name, "source": source,
                "config": {"scheme": scheme},
            })
            if index % WORKER_CRASH_EVERY == 0:
                cells.append({
                    "name": name, "source": source,
                    "config": {"scheme": scheme,
                               "fault_spec": WORKER_CRASH_SPEC},
                })
            index += 1
    requests = [
        dict(cells[i % len(cells)], tenant=f"tenant{i % tenants}")
        for i in range(submissions)
    ]
    return requests, cells


def cell_key(request: Dict[str, Any]) -> str:
    """Stable identity of one cell (for baseline-vs-recovered compare)."""
    return json.dumps(
        {"name": request["name"], "config": request["config"]},
        sort_keys=True,
    )


# -- server process management -------------------------------------------------


def start_server(
    cache_dir: str,
    journal_dir: Optional[str],
    workers: int,
) -> Tuple[subprocess.Popen, str]:
    """Launch ``repro serve`` on an ephemeral port; returns (proc, url)."""
    cmd = [
        sys.executable, "-m", "repro", "serve", "--port", "0",
        "--workers", str(workers), "--cache-dir", cache_dir,
    ]
    if journal_dir is not None:
        cmd += ["--journal", journal_dir, "--fsync", "always"]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env=env,
    )
    banner = proc.stdout.readline().strip()
    if not banner.startswith("serving on "):
        proc.kill()
        raise RuntimeError(f"unexpected server banner: {banner!r}")
    return proc, banner.split()[2]


def stop_server(proc: subprocess.Popen, url: str) -> None:
    from repro.service import ServiceClient

    try:
        with ServiceClient(url, timeout=10.0) as client:
            client.shutdown(drain=True)
    except Exception:  # noqa: BLE001 - already dead is fine here
        pass
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)


# -- phase 1: baseline ---------------------------------------------------------


def collect_results(client, requests, timeout: float) -> Dict[str, Any]:
    """Submit every request, wait for all jobs, and fold the terminal
    result projections into {cell_key: result}."""
    job_for_cell: Dict[str, str] = {}
    for request in requests:
        reply = client.submit(
            source=request["source"], name=request["name"],
            config=request["config"], tenant=request.get("tenant", "default"),
        )
        job_for_cell.setdefault(cell_key(request), reply["id"])
    results: Dict[str, Any] = {}
    for key, job_id in sorted(job_for_cell.items()):
        final = client.wait(job_id, timeout=timeout)
        if final["state"] not in ("done", "degraded"):
            raise RuntimeError(
                f"cell {key} ended {final['state']}: {final.get('error')}"
            )
        results[key] = final["result"]
    return results


def run_baseline(args, workdir: str) -> Dict[str, Any]:
    from repro.service import ServiceClient

    cache_dir = os.path.join(workdir, "baseline-cache")
    proc, url = start_server(cache_dir, None, args.workers)
    try:
        with ServiceClient(url, timeout=args.timeout) as client:
            requests, cells = build_requests(args.submissions, args.tenants)
            results = collect_results(client, requests, args.timeout)
    finally:
        stop_server(proc, url)
    assert len(results) == len(cells)
    return results


# -- phase 2: crash + recovery -------------------------------------------------


def run_crash(args, workdir: str, baseline: Dict[str, Any]) -> Dict[str, Any]:
    from repro.service import ServiceClient

    cache_dir = os.path.join(workdir, "crash-cache")
    journal_dir = os.path.join(workdir, "crash-journal")
    requests, _cells = build_requests(args.submissions, args.tenants)

    proc, url = start_server(cache_dir, journal_dir, args.workers)
    acked: List[Tuple[int, str]] = []   # (request index, job id)
    refused: List[str] = []
    lock = threading.Lock()
    killed = threading.Event()

    def killer() -> None:
        while not killed.is_set():
            with lock:
                enough = len(acked) >= args.kill_after
            if enough:
                os.kill(proc.pid, signal.SIGKILL)
                killed.set()
                return
            time.sleep(0.002)

    def pump(thread_index: int) -> None:
        with ServiceClient(url, timeout=10.0, retry_budget=5.0) as client:
            for i in range(thread_index, len(requests), args.threads):
                request = requests[i]
                try:
                    reply = client.submit(
                        source=request["source"], name=request["name"],
                        config=request["config"], tenant=request["tenant"],
                    )
                except Exception as exc:  # noqa: BLE001 - the kill, mostly
                    with lock:
                        refused.append(f"{type(exc).__name__}")
                    if killed.is_set():
                        return
                    continue
                with lock:
                    acked.append((i, reply["id"]))

    killer_thread = threading.Thread(target=killer, daemon=True)
    pumps = [
        threading.Thread(target=pump, args=(t,), daemon=True)
        for t in range(args.threads)
    ]
    killer_thread.start()
    for thread in pumps:
        thread.start()
    for thread in pumps:
        thread.join(timeout=args.timeout)
    killer_thread.join(timeout=args.timeout)
    proc.wait(timeout=60)
    server_killed = proc.returncode == -signal.SIGKILL

    # Restart on the same journal + cache directories: recovery.
    proc2, url2 = start_server(cache_dir, journal_dir, args.workers)
    try:
        with ServiceClient(url2, timeout=args.timeout) as client:
            stats = client.stats()
            recovery = stats["recovery"]

            # Zero lost: every job id acked before the kill still exists and
            # reaches a completed terminal state on the recovered server.
            acked_ids = sorted({job_id for _i, job_id in acked})
            lost: List[str] = []
            for job_id in acked_ids:
                try:
                    final = client.wait(job_id, timeout=args.timeout)
                except Exception:  # noqa: BLE001 - unknown id == lost
                    lost.append(job_id)
                    continue
                if final["state"] not in ("done", "degraded"):
                    lost.append(job_id)

            # Byte-identity: resubmit the full mix (idempotent — coalescing
            # + the artifact cache absorb whatever already ran) and compare
            # the per-cell projections against the crash-free baseline.
            results = collect_results(client, requests, args.timeout)
            recovered_blob = json.dumps(results, sort_keys=True)
            baseline_blob = json.dumps(baseline, sort_keys=True)
    finally:
        stop_server(proc2, url2)

    checks = {
        "server_was_sigkilled": server_killed,
        "kill_interrupted_submissions": len(acked_ids) < args.submissions,
        "journal_recovered_jobs": recovery["recovered"] >= 1,
        "zero_lost_jobs": not lost,
        "results_byte_identical": recovered_blob == baseline_blob,
    }
    return {
        "acked_before_kill": len(acked_ids),
        "refused_after_kill": len(refused),
        "recovery": recovery,
        "journal": stats["journal"],
        "lost": lost[:10],
        "checks": checks,
    }


# -- phase 3: cache corruption + self-heal -------------------------------------


def run_corruption(args, workdir: str, baseline: Dict[str, Any]) -> Dict[str, Any]:
    from repro.exec.engine import cell_summary, run_cell

    cache_dir = os.path.join(workdir, "baseline-cache")
    rng = random.Random(args.seed)

    # Flip one byte somewhere inside each victim entry.
    objects = os.path.join(cache_dir, "objects")
    stored = []
    for dirpath, _dirnames, filenames in os.walk(objects):
        stored.extend(
            os.path.join(dirpath, n) for n in filenames
            if n.endswith(".json")
        )
    stored.sort()
    victims = rng.sample(stored, min(args.corruptions, len(stored)))
    for path in victims:
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        data[rng.randrange(len(data))] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(data))

    # Re-run every cell against the damaged store: digests must catch
    # the flips, quarantine the files, and recompute identical results.
    requests, _cells = build_requests(args.submissions, args.tenants)
    healed: Dict[str, Any] = {}
    for request in requests:
        key = cell_key(request)
        if key in healed:
            continue
        cell = run_cell({
            "bench": request["name"], "source": request["source"],
            "config": dict(request["config"],
                           cache="on", cache_dir=cache_dir),
        })
        healed[key] = cell_summary(cell)

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    stats_proc = subprocess.run(
        [sys.executable, "-m", "repro", "cache", "stats",
         "--cache-dir", cache_dir, "--format", "json"],
        capture_output=True, text=True, env=env,
    )
    try:
        cache_stats = json.loads(stats_proc.stdout)
        quarantined = cache_stats["quarantine"]["entries"]
    except (ValueError, KeyError):
        quarantined = -1

    checks = {
        "bytes_were_flipped": len(victims) >= 1,
        "corruption_quarantined": quarantined >= 1,
        "cache_stats_exit_0": stats_proc.returncode == 0,
        "healed_results_byte_identical":
            json.dumps(healed, sort_keys=True)
            == json.dumps(baseline, sort_keys=True),
    }
    return {
        "flipped": len(victims),
        "quarantine_entries": quarantined,
        "checks": checks,
    }


# -- driver --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--submissions", type=int, default=120)
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--tenants", type=int, default=3)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--kill-after", type=int, default=None,
                        help="SIGKILL the server once this many "
                        "submissions are acked (default submissions//3)")
    parser.add_argument("--corruptions", type=int, default=2,
                        help="cache entries to flip a byte in (phase 3)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=300.0)
    parser.add_argument("--short", action="store_true",
                        help="CI smoke: fewer submissions, 1 kill, "
                        "1 corruption")
    args = parser.parse_args(argv)
    if args.short:
        args.submissions = min(args.submissions, 36)
        args.threads = min(args.threads, 4)
        args.corruptions = 1
    if args.kill_after is None:
        args.kill_after = max(1, args.submissions // 3)

    workdir = tempfile.mkdtemp(prefix="repro-chaostest-")
    summary: Dict[str, Any] = {
        "workdir": workdir,
        "submissions": args.submissions,
        "threads": args.threads,
        "kill_after": args.kill_after,
    }

    baseline = run_baseline(args, workdir)
    summary["cells"] = len(baseline)
    summary["crash"] = run_crash(args, workdir, baseline)
    summary["corruption"] = run_corruption(args, workdir, baseline)

    checks = dict(summary["crash"]["checks"])
    checks.update(summary["corruption"]["checks"])
    summary["ok"] = all(checks.values())
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
