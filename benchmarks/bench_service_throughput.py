"""Service throughput — request coalescing + artifact cache vs serial.

Drives a 200-submission burst (8 distinct program x scheme cells, 25x
duplication, 16 client threads) through the full HTTP stack and compares
the service's wall clock against the serial cost of computing every
submission independently.  The measured property is the tentpole claim:
duplicate traffic collapses onto O(distinct) executions — every
duplicate RunConfig coalesces onto an in-flight job or is answered by
the content-addressed outcome cache, never recomputed.
"""

import threading
import time

from repro.evalmodel import format_table
from repro.exec import RunConfig
from repro.exec.engine import SWEEP_SCHEMES, run_cell
from repro.service import Broker, ServiceClient, ServiceServer

FIR = """
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
"""

HIST = """
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
"""

CELLS = [
    (name, source, scheme)
    for name, source in (("fir", FIR), ("hist", HIST))
    for scheme in SWEEP_SCHEMES
]
SUBMISSIONS = 200
THREADS = 16


def _submit_burst(client):
    replies = []
    lock = threading.Lock()

    def pump(indices):
        for i in indices:
            name, source, scheme = CELLS[i % len(CELLS)]
            reply = client.submit(
                source=source, name=name, config={"scheme": scheme},
                tenant=f"t{i % 5}",
            )
            with lock:
                replies.append(reply)

    pool = [
        threading.Thread(
            target=pump, args=(range(t, SUBMISSIONS, THREADS),)
        )
        for t in range(THREADS)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    return replies


def test_service_throughput_vs_serial(benchmark, tmp_path):
    # Serial baseline: what the same 200 submissions cost with no
    # service in front — every one computed independently, no cache.
    serial_started = time.perf_counter()
    serial_results = {}
    for name, source, scheme in CELLS:
        cell = run_cell({
            "bench": name, "source": source,
            "config": RunConfig(scheme=scheme, cache="off").to_dict(),
        })
        assert cell["status"] == "ok"
        serial_results[(name, scheme)] = cell
    serial_cell_seconds = time.perf_counter() - serial_started
    serial_equiv = serial_cell_seconds / len(CELLS) * SUBMISSIONS

    server = ServiceServer(
        broker=Broker(
            config=RunConfig(cache_dir=str(tmp_path / "cache"), jobs=1),
            workers=4,
        ),
        port=0,
    ).start()
    client = ServiceClient(server.url, timeout=600.0)
    try:
        def burst():
            replies = _submit_burst(client)
            finals = {
                jid: client.wait(jid, timeout=600.0)
                for jid in sorted({r["id"] for r in replies})
            }
            return replies, finals

        started = time.perf_counter()
        replies, finals = benchmark.pedantic(burst, rounds=1, iterations=1)
        service_seconds = time.perf_counter() - started
        stats = client.stats()
    finally:
        server.stop()

    coalesced = sum(f["coalesced"] for f in finals.values())
    warm = sum(
        1 for f in finals.values()
        if (f.get("cache") or {}).get("outcome") == "hit"
    )
    # Zero lost or duplicated submissions, every job completed.
    assert len(replies) == SUBMISSIONS
    assert len(finals) + coalesced == SUBMISSIONS
    assert all(f["state"] == "done" for f in finals.values())
    # At least one coalesce per duplicated RunConfig.
    assert coalesced >= 1
    assert coalesced + warm >= SUBMISSIONS - len(CELLS)
    # Byte-identical to serial execution.
    for final in finals.values():
        key = (final["bench"], final["config"]["scheme"])
        assert final["result"]["cycles"] == serial_results[key]["cycles"]
        assert (
            final["result"]["dynamic_moves"]
            == serial_results[key]["dynamic_moves"]
        )

    print()
    print(format_table(
        ["metric", "value"],
        [
            ["submissions", str(SUBMISSIONS)],
            ["distinct cells", str(len(CELLS))],
            ["jobs executed", str(stats["jobs"]["completed"])],
            ["coalesced (in-flight dedupe)", str(coalesced)],
            ["warm outcome hits (cache dedupe)", str(warm)],
            ["coalesce ratio", f"{stats['coalesce_ratio']:.2f}"],
            ["service wall seconds", f"{service_seconds:.2f}"],
            ["serial-equivalent seconds", f"{serial_equiv:.2f}"],
            ["speedup vs serial",
             f"{serial_equiv / max(service_seconds, 1e-9):.1f}x"],
            ["submissions/second",
             f"{SUBMISSIONS / max(service_seconds, 1e-9):.1f}"],
        ],
    ))
    assert serial_equiv > service_seconds  # dedupe beats recompute
