"""The benchmark's three workloads.

Each workload runs in its own process with its own scratch directory
inside the checkout (a fresh artifact cache; ``~/.cache/repro`` and
``$REPRO_CACHE_DIR`` are never read).  Inputs are fixed program sets in
an order drawn from ``--seed``.  The work of a run is fixed by
``--seconds`` alone, never by how fast the host happens to be: compile_cold
and prepare make ``--seconds / PASS_NOMINAL_S`` passes over their input
set (at least one), service_warm serves ``--seconds * SERVICE_NOMINAL_RPS``
jobs.  On the reference host (2 vCPU Xeon) a run then takes about
``--seconds``.

Every wall time behind an end-to-end metric is read at reference
speed: right before each timed stretch (a compiled cell, a prepared
bench, a window of service jobs, a set-up) the run takes a speed reading
(:func:`host.speed_scale`, or :func:`host.all_cpus_speed_scale` where
the work may run on any CPU: service_warm's server, clients and cache
fill, and the fresh-interpreter set-ups) and multiplies the stretch's
wall time by it.  On a shared 2-vCPU Xeon VM the speed drifts by 20-40%
over minutes, which raw walls carry from run to run; the reading cancels
most of it.  The raw walls and the run's median scale are printed as
notes.  Each workload reports

* ``pass_s`` — one pass over the input set, as the sum over inputs of
  each input's median time (one pass: the sum of its op times);
* ``op_p50_ms`` / ``op_tail_ms`` — per-operation latency at the median
  and at the highest percentile with ten samples beyond it, both
  Harrell-Davis estimates (the tail taken per window of 200 operations,
  median over the windows; below 200 operations it is the median again);
* ``peak_rss_mb`` — peak RSS of the process doing the work;
* ``setup_s`` — the workload's set-up, median of several.

The issue-level names map onto these: ``cold_sweep_s`` is ``pass_s`` on
compile_cold, ``prepare_s`` is ``pass_s`` on prepare; on service_warm
``svc_p50_ms`` is ``op_p50_ms``, ``op_tail_ms`` stands for ``svc_p99_ms``
(p95 per 200-job window: on a shared host the p99 of 3,000 jobs is set
by a few stalls from other tenants, not by the service) and ``svc_rps``
is 16 cells / ``pass_s`` (also printed as a note).  ``error_rate`` is
``failed / attempted`` of the result line (it is 0 when correct, so it
is no metric); ``gdp_rel_unified`` is the deterministic per-layer
``partition.gdp_rel_unified``, and the reference check pins every cell's
cycles exactly.

With ``--trace 1`` a run does one pass untraced and one with every layer
boundary wrapped (``spans.py``), interleaved per input (service_warm:
half the jobs each, broker hosted in-process); the traced half gives the
per-layer numbers and the ratio of the two walls the tracing overhead.
Traced runs take no speed readings: per-layer times are raw seconds.

Every operation is checked against ``reference.json`` after timing; a
mismatch, a failed or degraded cell, a job that is not ``done`` or an
HTTP error fails the operation.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import host
from stats import (Tally, geomean, harrell_davis, percentile, sum_of_medians,
                   windowed_tail, TAIL_WINDOW)
from spans import Tracer, install_layer_probes

LATENCY = 5
SCHEMES = ("unified", "gdp", "profilemax", "naive")
#: cjpeg: largest module (pointer tables); viterbi: heaviest RHOP; fsed:
#: naive/profilemax RHOP cost 2-4x gdp's; rawcaudio: the paper's running
#: example; fir: smallest RHOP, interpreter-heavy.
COMPILE_BENCHES = ("cjpeg", "viterbi", "fsed", "rawcaudio", "fir")
SERVICE_BENCHES = ("fir", "huffman", "rawdaudio", "djpeg")
TENANTS = ("t0", "t1", "t2", "t3")
CLIENTS = 2
SERVER_WORKERS = 2
#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPEATS = 5
#: service_warm's set-up (a 16-cell cache fill, then a server start) takes
#: seconds, not tenths, so fewer of them.
SERVICE_SETUP_REPEATS = 3
#: Seconds one pass takes on the reference host; sizes a run's work.
PASS_NOMINAL_S = {"compile_cold": 30.0, "prepare": 15.0}
#: Jobs per second of service load a run is sized for (at least 1,000).
SERVICE_NOMINAL_RPS = 100

#: Layers each workload is expected to stress and to bypass (its one-line
#: why lives in BENCHMARK.json); a change predicted to move one layer
#: should leave the workloads that bypass it unchanged.
WORKLOADS = {
    "compile_cold": {
        "stresses": ["partition", "evalmodel", "profiler", "lang", "opt",
                     "analysis", "exec (cache writes)", "resilience"],
        "bypasses": ["service", "lint"],
    },
    "prepare": {
        "stresses": ["lang", "opt", "profiler", "analysis", "lint",
                     "partition (merge only)"],
        "bypasses": ["partition (gdp, rhop, estimator, assign)", "evalmodel",
                     "exec", "service"],
    },
    "service_warm": {
        "stresses": ["service (http, queue, broker, journal)",
                     "exec (cache reads, rehydrate)"],
        "bypasses": ["lang", "opt", "profiler", "analysis", "partition",
                     "evalmodel", "lint"],
    },
}

HERE = os.path.dirname(os.path.abspath(__file__))


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


class Context:
    """What every workload gets: paths, seed, time budget, checks."""

    def __init__(self, root: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.src = os.path.join(root, "src")
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tally = Tally()
        self.notes: List[str] = []
        self.scales: List[float] = []
        self.raw_seconds = 0.0
        with open(os.path.join(HERE, "reference.json")) as handle:
            self.reference = json.load(handle)
        base = os.path.join(root, ".perfbench_tmp")
        os.makedirs(base, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=base)

    def note(self, line: str) -> None:
        self.notes.append(line)

    def speed_scale(self, all_cpus: bool = False) -> float:
        """A speed reading for the stretch about to be timed (1.0 when
        tracing), taken on every CPU for work that runs on all of them.
        The caller adds the stretch's raw wall to ``raw_seconds``."""
        if self.trace:
            scale = 1.0
        elif all_cpus:
            scale = host.all_cpus_speed_scale()
        else:
            scale = host.speed_scale()
        self.scales.append(scale)
        return scale

    def timed(self, fn: Callable[[], Any], all_cpus: bool = False
              ) -> Tuple[Any, float]:
        """``fn()`` and its wall time at reference speed."""
        scale = self.speed_scale(all_cpus)
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        self.raw_seconds += seconds
        return result, seconds * scale

    def note_speed(self) -> None:
        if self.scales and not self.trace:
            self.note(f"speed scale median {statistics.median(self.scales):.3f}"
                      f" over {len(self.scales)} reading(s) "
                      f"({min(self.scales):.3f}-{max(self.scales):.3f}); "
                      f"raw wall of the timed stretches {self.raw_seconds:.2f}s")

    def check_cell(self, op: str, bench: str, scheme: str,
                   status: str, cycles: Any, moves: Any) -> None:
        """One cell against the frozen reference."""
        ref = self.reference["cells"][f"{bench}/{scheme}"]
        if status != "ok":
            self.tally.fail(op, f"status {status}")
        if cycles != ref["cycles"] or moves != ref["dynamic_moves"]:
            self.tally.fail(
                op, f"cycles/moves {cycles}/{moves} != reference "
                    f"{ref['cycles']}/{ref['dynamic_moves']}"
            )

    def check_trace(self, op: str, bench: str, output: List[Any]) -> None:
        if list(output) != self.reference["traces"][bench]["output"]:
            self.tally.fail(op, f"print trace {list(output)} != reference")


def timed_passes(
    ctx: Context,
    order: Callable[[], List[str]],
    unit: Callable[[int, str], None],
    passes: int,
) -> Tuple[List[float], Optional[Tracer]]:
    """Run ``unit(pass_index, item)`` over ``order()`` once per pass and
    return the pass walls (and the tracer, when tracing).

    Traced, there are two passes, interleaved: each item runs untraced
    (pass 0) and traced (pass 1) back to back, in alternating order, so
    host drift and warm-up cancel out of the tracing overhead.  The
    probes stay installed for the untraced half, which costs that half
    one extra call per wrapped call.
    """
    tracer = enable_tracing() if ctx.trace else None
    walls = [0.0] * (2 if tracer else passes)
    for index in range(1 if tracer else passes):
        for position, item in enumerate(order()):
            halves = ((0, 1), (1, 0))[position % 2] if tracer else (index,)
            for half in halves:
                if tracer:
                    tracer.enabled = half == 1
                start = time.perf_counter()
                try:
                    unit(half, item)
                finally:
                    if tracer:
                        tracer.enabled = False
                walls[half] += time.perf_counter() - start
    return walls, tracer


def passes_for(ctx: Context, workload: str) -> int:
    return max(1, int(ctx.seconds // PASS_NOMINAL_S[workload]))


def latency_metrics(ctx: Context, seconds_per_op: List[float]
                    ) -> Dict[str, float]:
    ms = [s * 1000.0 for s in seconds_per_op]
    tail, q, windows = windowed_tail(ms)
    ctx.note(f"op_tail_ms is the median of {windows} window(s)' "
             + (f"p{q:g}" if q else "median (no percentile has ten samples "
                                    "beyond it)")
             + f", {len(ms)} operation(s) in all")
    return {"op_p50_ms": harrell_davis(ms, 50.0), "op_tail_ms": tail}


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_setup_s(ctx: Context, statement: str) -> float:
    """Median wall of a fresh interpreter importing the workload's
    modules and loading the bench registry (the per-process set-up)."""
    env = dict(os.environ, PYTHONPATH=ctx.src)
    # The child may start on either CPU, so the reading covers both.
    return statistics.median(
        ctx.timed(lambda: subprocess.run(
            [sys.executable, "-c", statement], env=env, check=True,
            timeout=120, cwd=ctx.tmp), all_cpus=True)[1]
        for _ in range(SETUP_REPEATS))


def dir_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            if not name.endswith(".lock"):
                total += os.path.getsize(os.path.join(base, name))
    return total


def enable_tracing() -> Tracer:
    """A tracer with every layer probe installed, recording from now."""
    tracer = Tracer()
    install_layer_probes(tracer)
    tracer.enabled = True
    return tracer


def layer_metrics(t: Tracer, **given: float) -> Dict[str, float]:
    """Every per-layer metric: span self times and counters from the
    tracer (zero where the workload never crossed that layer), then the
    workload-computed values in ``given`` (:data:`PER_LAYER_GIVEN`)."""
    s, c = t.self_seconds, t.calls
    loads = c("exec.cache_load")
    metrics = {
        "lang.compile_s": s("lang.compile"),
        "opt.optimize_s": s("opt.optimize"),
        "profiler.interp_s": s("profiler.interp"),
        "profiler.steps": t.counters.get("profiler.steps", 0),
        "analysis.pointsto_s": s("analysis.pointsto"),
        "analysis.static_profile_s": s("analysis.static_profile"),
        "analysis.program_graph_s": s("analysis.program_graph"),
        "analysis.objects_s": s("analysis.objects"),
        "partition.merge_s": s("partition.merge"),
        "lint.run_s": s("lint.run"),
        "pipeline.prepare_self_s": s("pipeline.prepare"),
        "partition.gdp_s": s("partition.gdp"),
        "partition.rhop_s": s("partition.rhop"),
        "partition.rhop_calls": c("partition.rhop"),
        "partition.estimate_calls": c("partition.estimate"),
        "partition.estimate_s": s("partition.estimate"),
        "partition.move_count_calls": c("partition.move_count"),
        "partition.move_count_s": s("partition.move_count"),
        "partition.locks_s": s("partition.locks"),
        "partition.assign_s": s("partition.assign"),
        "evalmodel.evaluate_s": s("evalmodel.evaluate"),
        "evalmodel.roofline_s": s("evalmodel.roofline"),
        "ir.clone_s": s("ir.clone"),
        "resilience.ladder_self_s": s("resilience.ladder"),
        "exec.run_cell_self_s": s("exec.run_cell"),
        "exec.serialize_s": s("exec.serialize"),
        "exec.cache_store_calls": c("exec.cache_store"),
        "exec.cache_store_s": s("exec.cache_store"),
        "exec.cache_load_calls": loads,
        "exec.cache_load_s": s("exec.cache_load"),
        "exec.cache_hit_ratio": (
            t.counters.get("exec.cache_hits", 0) / loads if loads else 0.0
        ),
        "exec.rehydrate_s": s("exec.rehydrate"),
        "service.probe_s": s("service.probe"),
        "service.journal_appends": c("service.journal_append"),
        "service.journal_append_s": s("service.journal_append"),
    }
    for name in PER_LAYER_GIVEN:
        metrics[name] = given.pop(name, 0.0)
    if given:
        raise KeyError(f"unknown per-layer metric(s) {sorted(given)}")
    return metrics


#: Per-layer metrics the workloads compute themselves (not span totals).
#: ``trace.coverage`` (span self time / traced wall) is measured on the
#: serial workloads only; service_warm's spans run on concurrent threads
#: and report 0 there.
PER_LAYER_GIVEN = (
    "exec.cache_store_bytes",
    "exec.cache_loads_per_job",
    "service.queue_wait_p50_ms",
    "service.queue_wait_p99_ms",
    "service.run_p50_ms",
    "service.client_overhead_p50_ms",
    "service.coalesced",
    "service.warm_hits",
    "resilience.attempts",
    "resilience.fallbacks",
    "partition.gdp_rel_unified",
    "trace.overhead",
    "trace.coverage",
)


# ---------------------------------------------------------------------------
# compile_cold
# ---------------------------------------------------------------------------


def compile_cold(ctx: Context) -> Tuple[Dict[str, float], Dict[str, float]]:
    from repro.bench import get as get_bench
    from repro.exec import engine
    from repro.exec.runconfig import RunConfig

    setup_s = import_setup_s(
        ctx, "import repro.exec.engine, repro.pipeline.schemes, "
             "repro.resilience, repro.bench as b; b.all_benchmarks()")
    rng = random.Random(ctx.seed)
    # (pass, bench, scheme, cell, seconds, cache_dir)
    cells: List[Tuple[int, str, str, Dict[str, Any], float, str]] = []
    groups: Dict[str, List[float]] = {b: [] for b in COMPILE_BENCHES}

    cache_dirs: Dict[int, str] = {}  # one empty cache per pass

    def unit(index: int, bench: str) -> None:
        if index not in cache_dirs:
            cache_dirs[index] = tempfile.mkdtemp(
                prefix=f"cache{index}-", dir=ctx.tmp)
        group = 0.0
        for scheme in SCHEMES:
            config = RunConfig(scheme=scheme, latency=LATENCY, cache="on",
                               cache_dir=cache_dirs[index])
            cell, seconds = ctx.timed(lambda: engine.run_cell(
                {"bench": bench, "config": config.to_dict()}))
            cells.append((index, bench, scheme, cell, seconds,
                          cache_dirs[index]))
            group += seconds
        groups[bench].append(group)

    walls, tracer = timed_passes(
        ctx, lambda: rng.sample(COMPILE_BENCHES, len(COMPILE_BENCHES)), unit,
        passes_for(ctx, "compile_cold"))
    ctx.note(f"{len(walls)} pass(es) of {len(COMPILE_BENCHES) * len(SCHEMES)}"
             f" cells: " + ", ".join(f"{w:.2f}s" for w in walls))

    # -- checks (outside the timed region) -----------------------------------
    from repro.exec.engine import lookup_cached_outcome
    from repro.ir import loads
    from repro.profiler import Interpreter

    results: Dict[Tuple[int, str, str], Tuple[float, float]] = {}
    for index, bench, scheme, cell, _secs, cache_dir in cells:
        op = f"{bench}/{scheme}#{index}"
        ctx.tally.attempt()
        ctx.check_cell(op, bench, scheme, cell["status"], cell["cycles"],
                       cell["dynamic_moves"])
        results[(index, bench, scheme)] = (cell["cycles"],
                                           cell["dynamic_moves"])
        if index != len(walls) - 1:
            continue
        # Output check: the partitioned module still computes the
        # bench's reference print trace.
        source = get_bench(bench).source
        config = RunConfig(scheme=scheme, latency=LATENCY, cache="readonly",
                           cache_dir=cache_dir)
        payload = lookup_cached_outcome(source, bench, config)
        if payload is None:
            ctx.tally.fail(op, "outcome artifact missing")
            continue
        interp = Interpreter(loads(payload["module_text"]))
        interp.run()
        ctx.check_trace(op, bench, interp.profile.output)
    if ctx.trace and any(
        results[(0,) + k[1:]] != v for k, v in results.items() if k[0] == 1
    ):
        ctx.tally.fail("trace", "traced pass's cycles/moves differ from the "
                                "untraced pass's")

    if tracer is None:
        ctx.note_speed()
        return {
            "pass_s": sum_of_medians(groups),
            **latency_metrics(ctx, [c[4] for c in cells]),
            "peak_rss_mb": self_peak_rss_mb(),
            "setup_s": setup_s,
        }, {}
    untraced_wall, traced_wall = walls
    traced = [c for c in cells if c[0] == 1]
    reports = [c[3]["report"]["summary"] for c in traced]
    per_layer = layer_metrics(
        tracer,
        **{
            "exec.cache_store_bytes": dir_bytes(traced[0][5]),
            "exec.cache_loads_per_job": (
                tracer.calls("exec.cache_load") / len(traced)),
            "resilience.attempts": sum(r["attempts"] for r in reports),
            "resilience.fallbacks": sum(r["fallbacks"] for r in reports),
            "partition.gdp_rel_unified": geomean(
                results[(1, b, "unified")][0] / results[(1, b, "gdp")][0]
                for b in COMPILE_BENCHES),
            "trace.overhead": traced_wall / untraced_wall - 1.0,
            "trace.coverage": tracer.total_self_seconds() / traced_wall,
        },
    )
    return {}, per_layer


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------


def prepare(ctx: Context) -> Tuple[Dict[str, float], Dict[str, float]]:
    import repro.lint as lint
    from repro.bench import all_benchmarks
    from repro.exec.runconfig import RunConfig
    from repro.pipeline.prepared import PreparedProgram

    setup_s = import_setup_s(
        ctx, "import repro.pipeline.prepared, repro.lint, "
             "repro.analysis.dataflow.staticprofile, repro.bench as b; "
             "b.all_benchmarks()")
    benches = {b.name: b.source for b in all_benchmarks()}
    dynamic = RunConfig(profile="dynamic", cache="off")
    static = RunConfig(profile="static", cache="off")
    rng = random.Random(ctx.seed)
    times: Dict[str, List[float]] = {name: [] for name in benches}
    ops: List[Tuple[int, str, float]] = []
    facts: List[Tuple[str, str, List[Any], int, int]] = []

    def prepare_and_lint(name: str):
        dyn = PreparedProgram.from_source(benches[name], name, config=dynamic)
        PreparedProgram.from_source(benches[name], name, config=static)
        report, _lint_ctx = lint.lint_with_stats(dyn.module)
        return dyn, report

    def unit(index: int, name: str) -> None:
        (dyn, report), seconds = ctx.timed(lambda: prepare_and_lint(name))
        times[name].append(seconds)
        ops.append((index, name, seconds))
        facts.append((f"{name}#{index}", name, list(dyn.profile.output),
                      dyn.profile.instructions_executed, len(report.errors)))

    walls, tracer = timed_passes(
        ctx, lambda: rng.sample(sorted(benches), len(benches)), unit,
        passes_for(ctx, "prepare"))
    ctx.note(f"{len(walls)} pass(es) of {len(benches)} benches: "
             + ", ".join(f"{w:.2f}s" for w in walls))

    for op, name, output, steps, errors in facts:
        ctx.tally.attempt()
        ctx.check_trace(op, name, output)
        if steps != ctx.reference["traces"][name]["steps"]:
            ctx.tally.fail(op, f"{steps} interpreted ops != reference")
        if errors:
            ctx.tally.fail(op, f"lint reported {errors} error(s)")

    if tracer is None:
        ctx.note_speed()
        return {
            "pass_s": sum_of_medians(times),
            **latency_metrics(ctx, [o[2] for o in ops]),
            "peak_rss_mb": self_peak_rss_mb(),
            "setup_s": setup_s,
        }, {}
    untraced_wall, traced_wall = walls
    per_layer = layer_metrics(
        tracer,
        **{
            "trace.overhead": traced_wall / untraced_wall - 1.0,
            "trace.coverage": tracer.total_self_seconds() / traced_wall,
        },
    )
    return {}, per_layer


# ---------------------------------------------------------------------------
# service_warm
# ---------------------------------------------------------------------------


class _Load:
    """Closed-loop load: client threads, each submitting one job and
    waiting for its result before the next, over a seeded rotation of the
    16 cells and 4 tenants."""

    def __init__(self, url: str, seed: int, sources: Dict[str, str]):
        rng = random.Random(seed)
        self.cells = [(b, s) for b in SERVICE_BENCHES for s in SCHEMES]
        rng.shuffle(self.cells)
        self.url = url
        self.sources = sources
        self.offset = rng.randrange(len(self.cells))
        #: (bench, scheme, latency seconds, descriptor or None, error)
        self.results: List[Tuple[str, str, float, Optional[Dict], str]] = []

    def request(self, client, k: int) -> None:
        bench, scheme = self.cells[k % len(self.cells)]
        tenant = TENANTS[(k + k // len(self.cells)) % len(TENANTS)]
        start = time.perf_counter()
        descriptor, error = None, ""
        try:
            job = client.submit(
                source=self.sources[bench], name=bench, tenant=tenant,
                config={"scheme": scheme, "latency": LATENCY},
            )
            descriptor = client.wait(job["id"], timeout=60.0)
        except Exception as exc:  # noqa: BLE001 - any failure is counted
            error = f"{type(exc).__name__}: {exc}"
        self.results.append(
            (bench, scheme, time.perf_counter() - start, descriptor, error))

    def run(self, jobs: int, clients: int = CLIENTS) -> float:
        """Serve ``jobs`` more jobs from ``clients`` threads; returns the
        wall from the first submission to the last result."""
        from repro.service import ServiceClient

        first = len(self.results)
        issued = itertools.count(first)

        def loop() -> None:
            client = ServiceClient(self.url, timeout=30.0)
            while True:
                n = next(issued)
                if n >= first + jobs:
                    return
                self.request(client, self.offset + n)

        start = time.perf_counter()
        threads = [threading.Thread(target=loop) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start


def service_jobs(ctx: Context) -> int:
    return max(1000, int(ctx.seconds * SERVICE_NOMINAL_RPS))


def _start_server(ctx: Context, cache_dir: str, journal: str):
    """``repro serve`` as its own process; returns (process, url)."""
    log_path = journal + ".log"
    env = dict(os.environ, PYTHONPATH=ctx.src, REPRO_CACHE_DIR=cache_dir)
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(SERVER_WORKERS), "--journal", journal,
             "--fsync", "always", "--cache", "on", "--cache-dir", cache_dir],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ctx.tmp,
        )
    deadline = time.perf_counter() + 60.0
    while time.perf_counter() < deadline:
        with open(log_path) as handle:
            first = handle.readline()
        if first.startswith("serving on ") and first.endswith("\n"):
            url = first.split()[2]
            from repro.service import ServiceClient

            ServiceClient(url, timeout=10.0).healthz()
            return proc, url
        if proc.poll() is not None:
            break
        time.sleep(0.01)
    _stop_server(proc, None)
    raise RuntimeError(f"repro serve did not come up (see {log_path})")


def _stop_server(proc, url: Optional[str]) -> None:
    if url is not None and proc.poll() is None:
        from repro.service import ServiceClient

        try:
            ServiceClient(url, timeout=10.0).shutdown()
            proc.wait(timeout=30)
        except Exception:  # noqa: BLE001 - fall through to terminate
            pass
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _server_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def _check_jobs(ctx: Context, load: _Load, tag: str) -> None:
    for i, (bench, scheme, _secs, descriptor, error) in enumerate(
        load.results
    ):
        op = f"{tag}:{bench}/{scheme}#{i}"
        ctx.tally.attempt()
        if error:
            ctx.tally.fail(op, error)
            continue
        if descriptor["state"] != "done":
            ctx.tally.fail(op, f"job {descriptor['state']}")
            continue
        result = descriptor["result"]
        ctx.check_cell(op, bench, scheme, result["status"], result["cycles"],
                       result["dynamic_moves"])


def service_warm(ctx: Context) -> Tuple[Dict[str, float], Dict[str, float]]:
    from repro.bench import get as get_bench
    from repro.exec import ParallelRunner
    from repro.exec.runconfig import RunConfig

    sources = {b: get_bench(b).source for b in SERVICE_BENCHES}

    # -- set-up: fill a fresh cache, start a server on it --------------------
    # Server, clients and the fill's worker processes use every CPU, so
    # every speed reading here is taken on all of them.
    def fill(k: int) -> Tuple[str, float]:
        cache_dir = os.path.join(ctx.tmp, f"cache{k}")
        sweep, seconds = ctx.timed(lambda: ParallelRunner(
            RunConfig(latency=LATENCY, cache="on", cache_dir=cache_dir)
        ).sweep(list(SERVICE_BENCHES), jobs=CLIENTS), all_cpus=True)
        for cell in sweep.cells:
            ctx.tally.attempt()
            ctx.check_cell(f"fill{k}:{cell['bench']}/{cell['scheme']}",
                           cell["bench"], cell["scheme"], cell["status"],
                           cell["cycles"], cell["dynamic_moves"])
        return cache_dir, seconds

    if ctx.trace:
        return {}, _service_traced(ctx, fill(0)[0], sources)

    fills, starts = [], []
    proc = url = None
    try:
        for k in range(SERVICE_SETUP_REPEATS):
            if proc is not None:
                _stop_server(proc, url)
            cache_dir, seconds = fill(k)
            fills.append(seconds)
            journal = os.path.join(ctx.tmp, f"journal{k}")
            (proc, url), seconds = ctx.timed(
                lambda: _start_server(ctx, cache_dir, journal), all_cpus=True)
            starts.append(seconds)
        setup_s = statistics.median(f + s for f, s in zip(fills, starts))

        warmup = _Load(url, ctx.seed, sources)
        warmup.run(len(warmup.cells), clients=1)
        _check_jobs(ctx, warmup, "warmup")

        # Windows of TAIL_WINDOW jobs, each after its own speed reading
        # (taken while the server idles) and scaled by it.
        load = _Load(url, ctx.seed, sources)
        latencies: List[float] = []
        wall = 0.0
        for _ in range(service_jobs(ctx) // TAIL_WINDOW):
            scale = ctx.speed_scale(all_cpus=True)
            first = len(load.results)
            window = load.run(TAIL_WINDOW)
            ctx.raw_seconds += window
            wall += window * scale
            latencies += [r[2] * scale for r in load.results[first:]]
        peak = _server_peak_rss_mb(proc.pid)
    finally:
        if proc is not None:
            _stop_server(proc, url)
    _check_jobs(ctx, load, "load")
    done = len(load.results)
    rps = done / wall
    ctx.note(f"{done} job(s) from {CLIENTS} closed-loop client(s) in "
             f"{wall:.2f}s: {rps:.1f} req/s (svc_rps); set-up = cache fill "
             f"+ server start, " + ", ".join(
                 f"{f:.2f}s + {s:.3f}s" for f, s in zip(fills, starts)))
    ctx.note_speed()
    return {
        "pass_s": len(load.cells) / rps,
        **latency_metrics(ctx, latencies),
        "peak_rss_mb": peak,
        "setup_s": setup_s,
    }, {}


def _service_traced(ctx: Context, cache_dir: str, sources: Dict[str, str]
                    ) -> Dict[str, float]:
    """Per-layer run: broker and HTTP server hosted in this process (so
    cache loads and journal appends can be wrapped), half the jobs
    untraced, half traced."""
    from repro.exec.runconfig import RunConfig
    from repro.service import Broker, ServiceClient, ServiceServer

    broker = Broker(
        config=RunConfig(cache="on", cache_dir=cache_dir),
        workers=SERVER_WORKERS, journal_dir=os.path.join(ctx.tmp, "journal"),
        fsync="always",
    )
    server = ServiceServer(broker=broker, port=0).start()
    try:
        warmup = _Load(server.url, ctx.seed, sources)
        warmup.run(len(warmup.cells), clients=1)
        _check_jobs(ctx, warmup, "warmup")
        half = service_jobs(ctx) // 2
        plain = _Load(server.url, ctx.seed, sources)
        plain_wall = plain.run(half)
        _check_jobs(ctx, plain, "untraced")

        client = ServiceClient(server.url, timeout=30.0)
        before = client.stats()
        tracer = enable_tracing()
        traced = _Load(server.url, ctx.seed + 1, sources)
        try:
            traced_wall = traced.run(half)
        finally:
            tracer.enabled = False
        after = client.stats()
        _check_jobs(ctx, traced, "traced")

        queue_wait, run, overhead = [], [], []
        for _b, _s, secs, descriptor, error in traced.results:
            if error:
                continue
            events = {e["kind"]: e for e in client.events(descriptor["id"])}
            started, finished = events["started"], events["finished"]
            queue_wait.append(started["queue_wait"] * 1000.0)
            run.append((finished["ts"] - started["ts"]) * 1000.0)
            overhead.append((secs - finished["ts"]) * 1000.0)
    finally:
        server.stop()
    jobs = len(traced.results)
    ctx.note(f"traced: {jobs} job(s) in {traced_wall:.2f}s in-process vs "
             f"{len(plain.results)} untraced in {plain_wall:.2f}s")
    reports = [r[3].get("resilience", {}) for r in traced.results if r[3]]
    return layer_metrics(
        tracer,
        **{
            "exec.cache_loads_per_job": tracer.calls("exec.cache_load") / jobs,
            "service.queue_wait_p50_ms": statistics.median(queue_wait),
            "service.queue_wait_p99_ms": percentile(queue_wait, 99.0),
            "service.run_p50_ms": statistics.median(run),
            "service.client_overhead_p50_ms": statistics.median(overhead),
            "service.coalesced": (after["jobs"]["coalesced"]
                                  - before["jobs"]["coalesced"]),
            "service.warm_hits": (after["warm"]["outcome_hits"]
                                  - before["warm"]["outcome_hits"]),
            "resilience.attempts": sum(r.get("attempts", 0) for r in reports),
            "resilience.fallbacks": sum(
                r.get("fallbacks", 0) for r in reports),
            "trace.overhead": (
                (len(plain.results) / plain_wall)
                / (jobs / traced_wall) - 1.0),
        },
    )


RUNNERS = {
    "compile_cold": compile_cold,
    "prepare": prepare,
    "service_warm": service_warm,
}
