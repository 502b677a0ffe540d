"""Identity checks: every cell of a suite must reproduce its recorded golden.

Each suite in ``SUITES`` pins what one layer produces in a golden under
``tests/goldens/``, so a change meant to keep behaviour can prove it
changed nothing; its cell function says what a cell holds.
``rhop-shared`` checks ``rhop``'s golden through one fresh shared cache
store and cannot record.  A mismatch prints one line per differing field
of a cell; a unit its cell function finds wrong whatever the golden says
(a gate failure: a bench with a lint ERROR) prints one ``FAIL`` line and
fails the run too.  ``--only`` restricts a suite to some of its units
(benches, CLI cell names or service scenarios); a golden cell that was
not computed is a mismatch only on a full run, and a subset ``--record``
merges into the golden.

Run from the repository root with ``PYTHONPATH=src``:

    python scripts/identity.py lint profile        # check whole suites
    python scripts/identity.py rhop --only fir     # check a subset
    python scripts/identity.py cli --record        # rewrite a golden
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.analysis.pointsto import TIERS
from repro.bench import get, names
from repro.exec.artifacts import stable_op_keys
from repro.exec.runconfig import SCHEMES, RunConfig
from repro.ir import renumber_ops
from repro.lang import compile_source
from repro.lint import check_region_outcome, lint_report, lint_with_stats
from repro.opt import optimize_module
from repro.partition.gdp import GDPConfig, gdp_partition
from repro.pipeline import Pipeline, PreparedProgram
from repro.profiler import Interpreter
from repro.resilience import LadderExhausted, RunReport, scrub
from repro.service import Broker, Journal, ServiceError, scrub_events

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "goldens"

Cells = Dict[str, Dict[str, Any]]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- lint ---------------------------------------------------------------------

LINT_MODES = ("plain", "oracle", "prepared")


def lint_cells(benches: Sequence[str], failures: List[str]) -> Cells:
    """bench -> mode -> SHA-256 of ``lint_module(...).to_json()``.

    Changes to how the lint passes obtain their analyses can thereby
    prove the findings did not move.  The three modes are the three ways
    the suite is linted:

    * ``plain`` -- a ``compile_source`` module linted as ``repro lint``
      reports it (:func:`repro.lint.lint_report`: the passes plus the
      per-tier ``DETERMINISTIC_COLUMNS`` points-to stats);
    * ``oracle`` -- the same module linted with an interpreter profile of
      itself, as ``repro lint --dynamic-oracle`` does, so the points-to
      refinement differ (``ptdiff``) and the static-vs-dynamic drift
      differ (``staticdiff``) check every bench;
    * ``prepared`` -- the dynamically prepared module, as the benchmark's
      prepare workload lints it.

    A bench whose plain or oracle report has an ERROR is a gate failure.
    """
    machine = RunConfig().build_machine()
    dynamic = RunConfig(profile="dynamic", cache="off")
    cells: Cells = {}
    for bench in map(get, benches):
        module = compile_source(bench.source, bench.name)
        plain = lint_report(module, machine)
        interp = Interpreter(module)
        interp.run()
        oracle = lint_report(module, machine, profile=interp.profile)
        for mode, report in (("plain", plain), ("oracle", oracle)):
            if report.has_errors:
                failures.append(f"bench {bench.name} ({mode}): "
                                f"{report.summary()}\n{report.render_text()}")
        prepared = PreparedProgram.from_source(
            bench.source, bench.name, config=dynamic
        )
        report, _ctx = lint_with_stats(prepared.module)
        cells[bench.name] = {
            "plain": _sha256(plain.to_json()),
            "oracle": _sha256(oracle.to_json()),
            "prepared": _sha256(report.to_json()),
        }
    return cells


# -- profile ------------------------------------------------------------------

PROFILE_MODES = ("plain", "prepared", "static")


def _positions(module) -> Dict[int, List[Any]]:
    """Op uid -> ``[function, block, index]``."""
    return {
        op.uid: [func.name, block.name, index]
        for func in module
        for block in func
        for index, op in enumerate(block.ops)
    }


def canonical_profile(module, profile) -> Dict[str, Any]:
    """``profile`` as JSON-ready lists, ops keyed by their position."""
    where = _positions(module)
    return {
        "block_counts": [[f, b, n] for (f, b), n
                         in profile.block_counts.items()],
        "op_object_counts": [
            [where[uid], [[obj, n] for obj, n in counts.items()]]
            for uid, counts in profile.op_object_counts.items()
        ],
        "op_object_regions": [
            [where[uid], [[obj, lo, hi] for obj, (lo, hi) in regions.items()]]
            for uid, regions in profile.op_object_regions.items()
        ],
        "heap_sizes": [[obj, n] for obj, n in profile.heap_sizes.items()],
        "call_counts": [[f, n] for f, n in profile.call_counts.items()],
        "instructions_executed": profile.instructions_executed,
        "output": list(profile.output),
    }


def _bound(value: float):
    return "inf" if value == math.inf else value


def canonical_static_profile(module, profile) -> Dict[str, Any]:
    """:func:`canonical_profile` plus a static profile's sound tables."""
    out = canonical_profile(module, profile)
    where = _positions(module)
    out["block_bounds"] = [[f, b, _bound(n)] for (f, b), n
                           in profile.block_bounds.items()]
    out["op_weight_bounds"] = [[where[uid], _bound(n)] for uid, n
                               in profile.op_weight_bounds.items()]
    out["static_regions"] = [
        [where[uid], [[obj, region] for obj, region in sorted(regions.items())]]
        for uid, regions in profile.static_regions.items()
    ]
    out["object_static_regions"] = sorted(
        [obj, spans] for obj, spans in profile.object_static_regions.items()
    )
    return out


def _profiled_modules(bench):
    yield "plain", compile_source(bench.source, bench.name)
    prepared = compile_source(
        bench.source, bench.name,
        unroll_factor=PreparedProgram.DEFAULT_UNROLL, if_convert=True,
    )
    optimize_module(prepared)
    renumber_ops(prepared)
    yield "prepared", prepared


def _profile_cell(canonical: Dict[str, Any], result, steps: int) -> Dict[str, Any]:
    text = json.dumps(canonical, separators=(",", ":"))
    return {"sha256": _sha256(text), "result": result, "steps": steps}


def profile_cells(benches: Sequence[str], failures: List[str]) -> Cells:
    """bench -> mode -> ``{sha256, result, steps}``.

    ``sha256`` hashes the canonical ProfileData the interpreter fills
    in: block counts, op -> object counts, op -> object byte regions,
    heap sizes, call counts, ``instructions_executed`` and the print
    trace.  ``main``'s return value and the step count are pinned in the
    clear.  A change to how the interpreter executes a module can
    therefore prove the profile the partitioners consume did not move.

    Op uids come from a process-global counter, so ops are keyed by
    ``(function, block, index)`` instead.  Every dict is serialized as a
    list in insertion order, so the golden also pins the order in which
    entries are first created (first execution order).

    The first two modes are the two modules the suite is interpreted on:

    * ``plain`` -- a ``compile_source`` module, as ``repro lint
      --dynamic-oracle`` profiles it;
    * ``prepared`` -- the unrolled, optimized, renumbered module a
      dynamic ``PreparedProgram.from_source`` profiles.

    The third, ``static``, is the profile a static ``PreparedProgram``
    derives without running anything: the same counters plus the sound
    side tables (``block_bounds``, ``op_weight_bounds``,
    ``static_regions`` and ``object_static_regions``).  Its ``result``
    is ``null`` and its ``steps`` the estimated instruction count.
    Region dicts are written in sorted key order, the only ones not
    pinned in insertion order: the static analysis fills them from sets
    of object ids.
    """
    cells: Cells = {}
    for bench in map(get, benches):
        cells[bench.name] = {}
        for mode, module in _profiled_modules(bench):
            interp = Interpreter(module)
            result = interp.run()
            cells[bench.name][mode] = _profile_cell(
                canonical_profile(module, interp.profile), result,
                interp.profile.instructions_executed)
        static = PreparedProgram.from_source(
            bench.source, bench.name, config=RunConfig(profile="static"))
        cells[bench.name]["static"] = _profile_cell(
            canonical_static_profile(static.module, static.profile), None,
            static.profile.instructions_executed)
    return cells


# -- tiers --------------------------------------------------------------------


def tier_cells(benches: Sequence[str], failures: List[str]) -> Cells:
    """``"bench/tier"`` -> cell, for every points-to tier.

    Pins the two analysis chains that run on a module annotated by the
    prepared tier rather than on andersen's own solve, so a change to how
    they obtain their analyses can prove neither moved.  Each cell stores

    * ``regioncheck`` -- SHA-256 of ``check_region_outcome(prepared,
      outcome).to_json()`` for the bench's dynamically prepared program
      at that tier and its GDP outcome through ``Pipeline`` (cache off);
    * ``static`` -- for ``field`` and ``cs`` only, the static
      ``PreparedProgram``'s profile as :func:`profile_cells` stores its
      ``static`` mode (which covers ``andersen``).

    A bench whose region report has an ERROR is a gate failure.
    """
    cells: Cells = {}
    for bench in map(get, benches):
        for tier in TIERS:
            config = RunConfig(cache="off", pointsto_tier=tier)
            pipe = Pipeline(config)
            prepared = pipe.prepare(bench.source, bench.name)
            report = check_region_outcome(prepared, pipe.run(prepared, "gdp"))
            if report.has_errors:
                failures.append(f"bench {bench.name} at {tier}: "
                                f"{report.summary()}\n{report.render_text()}")
            cell: Dict[str, Any] = {"regioncheck": _sha256(report.to_json())}
            if tier != "andersen":
                static = PreparedProgram.from_source(
                    bench.source, bench.name,
                    config=config.replace(profile="static"))
                cell["static"] = _profile_cell(
                    canonical_static_profile(static.module, static.profile),
                    None, static.profile.instructions_executed)
            cells[f"{bench.name}/{tier}"] = cell
    return cells


# -- rhop ---------------------------------------------------------------------

RHOP_LATENCIES = (1, 5, 10)


def assignment_sha256(outcome) -> str:
    """SHA-256 of the stable-keyed op->cluster assignment."""
    keys = stable_op_keys(outcome.module)
    pairs = sorted(
        [keys[uid], cluster]
        for uid, cluster in outcome.assignment.items()
        if uid in keys
    )
    blob = json.dumps(pairs, separators=(",", ":"))
    return _sha256(blob)


def rhop_cells(benches: Sequence[str], failures: List[str],
               cache_dir: Optional[str] = None) -> Cells:
    """``"bench/scheme/latency"`` -> cell, default seed, latencies 1/5/10.

    Pins what the computation partitioner decides, so a change meant to
    make it faster can prove it changed nothing else.  Each cell stores

    * ``status`` -- ``ok``, or ``degraded`` when the ladder fell back;
    * ``cycles`` and ``dynamic_moves`` of the evaluated outcome;
    * ``assignment_sha256`` -- SHA-256 of the outcome's op->cluster map,
      keyed by ``func:block:index``
      (:func:`repro.exec.artifacts.stable_op_keys`) so it is independent
      of process-global op uids.

    The cache is off, or on with one shared store in ``cache_dir``.
    """
    base = (
        RunConfig(cache="off") if cache_dir is None
        else RunConfig(cache="on", cache_dir=cache_dir)
    )
    cells: Cells = {}
    for bench in map(get, benches):
        # The prepared program does not depend on the move latency.
        prepared = Pipeline(base).prepare(bench.source, bench.name)
        for latency in RHOP_LATENCIES:
            pipe = Pipeline(base.replace(latency=latency))
            for scheme in SCHEMES:
                outcome = pipe.run(prepared, scheme)
                cells[f"{bench.name}/{scheme}/{latency}"] = {
                    "status": "degraded" if outcome.fell_back else "ok",
                    "cycles": outcome.cycles,
                    "dynamic_moves": outcome.dynamic_moves,
                    "assignment_sha256": assignment_sha256(outcome),
                }
    return cells


def rhop_shared_cells(benches: Sequence[str], failures: List[str]) -> Cells:
    """:func:`rhop_cells` through one fresh shared artifact store, so
    Unified, Naïve and Profile Max's first pass share one unlocked RHOP
    pass per (bench, latency) through its ``rhop`` artifact.  The store
    starts empty: outcomes a previous run left would be served without
    partitioning."""
    with tempfile.TemporaryDirectory(prefix="repro-rhop-identity-") as store:
        return rhop_cells(benches, failures, cache_dir=store)


# -- gdp ----------------------------------------------------------------------

GDP_CLUSTERS = (2, 4)
#: The size-balance tolerances the §4.3 ablation
#: (``benchmarks/bench_ablation_imbalance.py``) sweeps.
GDP_RATIOS = (1.05, 1.2, 1.5, 2.0, 4.0)


def group_cut(prepared, dp) -> float:
    """Weight of the program-graph edges between merge groups that ``dp``
    homes on different clusters."""
    group_of_op = prepared.merge.group_of_op
    cut = 0.0
    for (src, dst), weight in prepared.program_graph.undirected_edges().items():
        if dp.group_cluster[group_of_op[src]] != dp.group_cluster[group_of_op[dst]]:
            cut += weight
    return cut


def gdp_cells(benches: Sequence[str], failures: List[str]) -> Cells:
    """``"bench/k/ratio"`` -> ``{object_home, cluster_bytes, cut}``.

    Pins what the data partitioner decides on its own, so a change to the
    graph partitioner under it can prove no home moved.  Each cell runs
    ``gdp_partition`` on the bench's dynamically prepared program for
    ``k`` clusters with ``GDPConfig(size_imbalance=ratio)`` and stores the
    sorted ``object_home``, the data bytes homed on each cluster and
    :func:`group_cut`.
    """
    cells: Cells = {}
    for bench in map(get, benches):
        prepared = Pipeline(RunConfig(cache="off")).prepare(
            bench.source, bench.name
        )
        for k in GDP_CLUSTERS:
            for ratio in GDP_RATIOS:
                dp = gdp_partition(
                    prepared.module, prepared.objects, k,
                    block_freq=prepared.block_freq,
                    config=GDPConfig(size_imbalance=ratio),
                    merge=prepared.merge,
                    program_graph=prepared.program_graph,
                )
                cells[f"{bench.name}/{k}/{ratio}"] = {
                    "object_home": sorted(dp.object_home.items()),
                    "cluster_bytes": dp.cluster_bytes(prepared.objects),
                    "cut": group_cut(prepared, dp),
                }
    return cells


# -- scheme -------------------------------------------------------------------

SCHEME_BENCHES = ("rawcaudio", "fir", "huffman")
#: ``None`` is the fault-free run; the rest cover every injection point
#: of the scheme runners, once for every attempt and once for the first.
FAULT_SPECS = (
    None,
    "seed=3;raise:*@1",
    "seed=3;raise:*",
    "seed=3;raise:rhop@1",
    "seed=3;raise:rhop",
    "seed=3;raise:profilemax",
    "seed=3;raise:naive@1",
    "seed=3;corrupt-homes:*:2",
    "seed=3;unlock:*:3",
    "seed=3;unlock:*:3@1",
    "seed=3;slow-moves:3",
    "seed=3;corrupt-homes:profilemax:1;unlock:naive:2",
)


_UNLOCKED = re.compile(r"unlocked ops \[([\d, ]*)\]")


def report_sha256(report) -> str:
    """SHA-256 of the deterministic report, unlocked-op uids rebased."""
    data = report.to_dict(deterministic=True)
    faults = [
        event for event in data["events"]
        if event["kind"] == "fault" and _UNLOCKED.fullmatch(event["detail"])
    ]
    uids = [
        int(uid)
        for event in faults
        for uid in re.findall(r"\d+", event["detail"])
    ]
    for event in faults:
        rebased = [
            int(uid) - min(uids) for uid in re.findall(r"\d+", event["detail"])
        ]
        event["detail"] = f"unlocked ops {rebased}"
    text = json.dumps(data, indent=2, sort_keys=True)
    return _sha256(text)


def _scheme_cell(prepared, scheme: str, spec: Optional[str]) -> Dict[str, Any]:
    """One cell: the ladder's answer for ``scheme`` under ``spec``."""
    pipe = Pipeline(RunConfig(
        scheme=scheme, cache="off", fault_spec=spec,
        fallback=True, retries=1, validate=True,
    ))
    report = RunReport()
    try:
        outcome = pipe.run(prepared, scheme, report)
    except LadderExhausted as exc:
        return {"exhausted": str(exc)}
    return {
        "scheme": outcome.scheme,
        "cycles": outcome.cycles,
        "dynamic_moves": outcome.dynamic_moves,
        "object_home": sorted((outcome.object_home or {}).items()),
        "timings": sorted(outcome.timings),
        "rhop_runs": outcome.rhop_runs,
        "assignment_sha256": assignment_sha256(outcome),
        "report_sha256": report_sha256(report),
    }


def scheme_cells(benches: Sequence[str], failures: List[str]) -> Cells:
    """``"bench/scheme/spec"`` -> cell; one fault-free prepare per bench.

    Pins what each Table-1 scheme produces through the validating
    degradation ladder, with and without injected faults, so a refactor
    of the scheme runners can prove it kept every fault hook in its place
    and order.  Each cell runs ``Pipeline(RunConfig(scheme=...,
    cache="off", fault_spec=..., fallback=True, retries=1,
    validate=True))`` and stores either

    * ``exhausted`` -- the :class:`~repro.resilience.LadderExhausted`
      message, when every rung failed; or
    * ``scheme`` (the rung that answered), ``cycles``, ``dynamic_moves``,
      the sorted ``object_home``, the sorted ``timings`` keys,
      ``rhop_runs``, ``assignment_sha256`` (as in :func:`rhop_cells`)
      and ``report_sha256`` -- SHA-256 of
      ``RunReport.to_json(deterministic=True)``, which pins every
      attempt, fault firing, fallback and phase name.  The op uids an
      ``unlock`` firing names are rebased to the smallest of them first:
      clones draw uids from a process-global counter, so their absolute
      values depend on whatever the process ran before the cell.
    """
    cells: Cells = {}
    for bench in map(get, benches):
        prepared = Pipeline(RunConfig(cache="off")).prepare(
            bench.source, bench.name
        )
        for scheme in SCHEMES:
            for spec in FAULT_SPECS:
                key = f"{bench.name}/{scheme}/{spec or 'none'}"
                cells[key] = _scheme_cell(prepared, scheme, spec)
    return cells


# -- cli ----------------------------------------------------------------------

PROGRAM = "examples/quickstart.py"
#: Stands for the run-report path in argv and in the scrubbed output.
REPORT = "{report}"

#: The fault-class specs of ``check.sh faults``, one cell each.
CLI_FAULT_SPECS = {
    "raise-gdp": "seed=7;raise:gdp",
    "corrupt-homes": "seed=7;corrupt-homes:gdp:2",
    "unlock": "seed=7;unlock:gdp:4",
    "slow-moves": "seed=7;slow-moves:4",
    "raise-profiler": "seed=7;raise:profiler",
}

CELLS: Dict[str, List[str]] = {
    "config-default": ["config", "show"],
    "config-every-flag": [
        "config", "show", "--format", "json", "--scheme", "naive",
        "--latency", "7", "--machine", "four_cluster", "--pointsto", "cs",
        "--profile", "static", "--seed", "3", "--jobs", "2",
        "--cache", "readonly", "--cache-dir", "cache-root",
        "--max-seconds", "9", "--retries", "2", "--fallback",
        "--fault-spec", "seed=1;raise:gdp", "--verify-partition",
    ],
    "config-retries": ["config", "show", "--format", "json", "--retries", "1"],
    "config-fallback": ["config", "show", "--format", "json", "--fallback"],
    "partition-gdp": ["partition", PROGRAM],
    "partition-profilemax": ["partition", PROGRAM, "--scheme", "profilemax"],
    "partition-naive": ["partition", PROGRAM, "--scheme", "naive"],
    "partition-unified": ["partition", PROGRAM, "--scheme", "unified"],
    "partition-field": ["partition", PROGRAM, "--pointsto", "field"],
    "partition-static": ["partition", PROGRAM, "--profile", "static"],
    "partition-four-cluster": [
        "partition", PROGRAM, "--machine", "four_cluster",
        "--verify-partition",
    ],
    **{
        f"partition-fault-{label}": [
            "partition", PROGRAM, "--fallback", "--retries", "1",
            "--fault-spec", spec, "--run-report", REPORT,
        ]
        for label, spec in CLI_FAULT_SPECS.items()
    },
    "compare": ["compare", PROGRAM],
    "compare-fallback-raise-gdp": [
        "compare", PROGRAM, "--fallback", "--fault-spec", "seed=7;raise:gdp",
        "--run-report", REPORT,
    ],
    "compare-exhausted": [
        "compare", PROGRAM, "--fault-spec", "seed=7;raise:gdp",
        "--run-report", REPORT,
    ],
    "bench-list": ["bench"],
    "bench-rawcaudio": ["bench", "rawcaudio"],
    "bench-rawcaudio-sweep": [
        "bench", "rawcaudio", "--all", "--jobs", "1", "--run-report", REPORT,
    ],
    "lint-text": ["lint", PROGRAM],
    "lint-json": ["lint", PROGRAM, "--format", "json"],
    "lint-sarif": ["lint", PROGRAM, "--format", "sarif"],
    "lint-dynamic-oracle": ["lint", PROGRAM, "--dynamic-oracle"],
    "lint-verify-partition": ["lint", PROGRAM, "--verify-partition"],
    "lint-only-bogus": ["lint", PROGRAM, "--only", "bogus"],
    "lint-run-report": ["lint", PROGRAM, "--run-report", REPORT],
    "compile": ["compile", PROGRAM],
    "run": ["run", PROGRAM],
    "submit-no-source": ["submit"],
    "missing-file": ["partition", "no/such/program.mc"],
}

#: Cells that take well under a second each: the tier-1 test runs these.
FAST_CELLS = (
    "config-default", "config-every-flag", "config-retries",
    "config-fallback", "partition-gdp", "partition-fault-raise-profiler",
    "compare-fallback-raise-gdp", "compare-exhausted", "bench-list",
    "lint-only-bogus", "lint-run-report", "submit-no-source",
    "missing-file",
)

def scrub_text(text: str, report_path: str) -> str:
    """``text`` with wall clocks, solver counters and paths replaced."""
    text = text.replace(report_path, REPORT).replace(str(ROOT), "<root>")
    text = re.sub(r"\(\d+ iters, [\d.]+ ms\)", "(N iters, T ms)", text)
    text = re.sub(
        r"in [\d.]+s wall \([\d.]+s serial-equivalent, [\d.]+x speedup",
        "in Ts wall (Ts serial-equivalent, Nx speedup", text,
    )
    # The sweep table's last column is per-cell seconds.
    return "\n".join(
        re.sub(r"(  )\d+\.\d\d\s*$", r"\1T", line) if "  " in line else line
        for line in text.splitlines()
    )


def run_cell(argv: List[str]) -> Dict[str, Any]:
    """Run ``python -m repro argv`` and return its scrubbed record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    with tempfile.TemporaryDirectory() as tmp:
        report_path = os.path.join(tmp, "run-report.json")
        argv = [report_path if arg == REPORT else arg for arg in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv], cwd=ROOT, env=env,
            capture_output=True, text=True, stdin=subprocess.DEVNULL,
        )
        report = None
        if os.path.exists(report_path):
            with open(report_path) as handle:
                report = scrub(json.load(handle))
    return {
        "exit": proc.returncode,
        "stdout": scrub_text(proc.stdout, report_path),
        "stderr": scrub_text(proc.stderr, report_path),
        "report": report,
    }


def cli_cells(names: Sequence[str], failures: List[str]) -> Cells:
    """CELLS name -> ``{argv, exit, stdout, stderr, report}``.

    Pins what the command line front end prints for a matrix of
    invocations -- ``config show``, ``partition`` across schemes, tiers,
    profiles, machines and fault specs, ``compare``, ``bench``, ``lint``
    in every format, ``compile``, ``run``, ``submit`` without a program,
    and a missing input file -- so a refactor of the argument handling
    can prove it changed nothing a user sees.

    Each cell runs ``python -m repro <argv>`` in a fresh process from the
    repository root and stores

    * ``exit`` -- the process exit code;
    * ``stdout`` / ``stderr`` -- with the points-to solver's
      ``(N iters, T ms)``, the sweep table's seconds column and footer
      timings, and the run-report path replaced by placeholders;
    * ``report`` -- the ``--run-report`` file, when the cell writes one,
      through :func:`repro.resilience.scrub`, the projection
      ``RunReport.to_dict(deterministic=True)`` applies: cache events
      dropped, wall clocks, phase timings and solver counters zeroed.
    """
    return {name: {"argv": CELLS[name], **run_cell(CELLS[name])} for name in names}


# -- service ------------------------------------------------------------------

SERVICE_SOURCE = """
int N = 12;
int a[12];
int main() {
  int i;
  for (i = 0; i < N; i = i + 1) { a[i] = i * 3; }
  print_int(a[5]);
  return 0;
}
"""
#: The journal directory the ``recover`` scenario's crash left when the
#: suite was first recorded; never rewritten, so ``recover-parent`` shows
#: that a broker still reads a journal an older broker wrote.
PARENT_JOURNAL = GOLDENS / "service_journal"
_JOURNAL_FILES = ("journal.ndjson", "snapshot.json")


def _request(scheme: str, tenant: str = "default",
             fault_spec: Optional[str] = None) -> Dict[str, Any]:
    return {"source": SERVICE_SOURCE, "name": "tiny", "tenant": tenant,
            "config": {"scheme": scheme, "fault_spec": fault_spec}}


def _broker(**kwargs: Any) -> Broker:
    """A one-worker broker with its cache and journal in the working
    directory, so every path it records is relative."""
    return Broker(RunConfig(cache_dir="cache"), workers=1,
                  journal_dir="journal", **kwargs)


def _refused(cell: Dict[str, Any], call: Callable[..., Any], *args: Any) -> None:
    """Call ``call(*args)``, which must refuse; keep its error envelope."""
    try:
        call(*args)
    except ServiceError as exc:
        cell["errors"].append({"status": exc.status, **exc.to_dict()})
    else:
        cell["errors"].append({"status": None, "error": "accepted"})


def _settle(broker: Broker, timeout: float = 120.0) -> None:
    """Wait until every job is terminal and no worker holds one, so the
    journal holds every record the scenario causes."""
    deadline = time.monotonic() + timeout
    while not (
        all(job.terminal for job in broker.jobs())
        and broker.queue.stats()["running"] == {}
        and broker.queue.depth() == 0
    ):
        if time.monotonic() > deadline:
            raise RuntimeError("service scenario did not settle")
        time.sleep(0.01)


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _close(broker: Broker, settle: bool = True, **shutdown: Any) -> str:
    """Settle and shut ``broker`` down; returns the journal log as it was
    before the shutdown compacted it."""
    if settle:
        _settle(broker)
    log = _read("journal/journal.ndjson")
    broker.shutdown(**shutdown)
    return log


def _scenario_coalesce(cell: Dict[str, Any]) -> Tuple[Broker, str]:
    """Duplicates fold onto an in-flight job; a finished one is served warm."""
    broker = _broker(start=False)
    broker.submit(_request("gdp"))
    broker.submit(_request("gdp", tenant="other"))
    broker.submit(_request("naive"))
    broker.start()
    _settle(broker)
    broker.submit(_request("gdp"))
    return broker, _close(broker)


def _scenario_crash(cell: Dict[str, Any]) -> Tuple[Broker, str]:
    """One worker crash requeued, one persistent crash failed, one ladder
    fallback degraded."""
    broker = _broker(start=False, max_requeues=1)
    broker.submit(_request("gdp", fault_spec="seed=3;raise:worker@1"))
    broker.submit(_request("naive", fault_spec="seed=3;raise:worker"))
    broker.submit(_request("gdp", fault_spec="seed=3;raise:gdp"))
    broker.start()
    return broker, _close(broker)


def _scenario_cancel(cell: Dict[str, Any]) -> Tuple[Broker, str]:
    """A queued job is cancelled; cancelling it again, a finished job or
    an unknown one is refused."""
    broker = _broker(start=False)
    first, _ = broker.submit(_request("gdp"))
    second, _ = broker.submit(_request("naive"))
    broker.cancel(first.id)
    _refused(cell, broker.cancel, first.id)
    _refused(cell, broker.cancel, "j999999")
    broker.start()
    _settle(broker)
    _refused(cell, broker.cancel, second.id)
    return broker, _close(broker)


def _scenario_backpressure(cell: Dict[str, Any]) -> Tuple[Broker, str]:
    """A tenant 429, a depth 429, a duplicate that passes both bounds and
    a malformed config's 400."""
    broker = _broker(start=False, max_depth=2, tenant_pending=1,
                     retry_after=2.5)
    broker.submit(_request("gdp", tenant="a"))
    _refused(cell, broker.submit, _request("naive", tenant="a"))
    broker.submit(_request("naive", tenant="b"))
    _refused(cell, broker.submit, _request("unified", tenant="c"))
    broker.submit(_request("gdp", tenant="c"))
    _refused(cell, broker.submit,
             {"source": SERVICE_SOURCE, "config": {"bogus": 1}})
    broker.start()
    return broker, _close(broker)


def _scenario_drain(cell: Dict[str, Any]) -> Tuple[Broker, str]:
    """A draining shutdown parks what no worker ran; admission is shut."""
    broker = _broker(start=False)
    broker.submit(_request("gdp"))
    broker.submit(_request("naive", tenant="other"))
    log = _close(broker, settle=False, drain=True, timeout=0.2)
    _refused(cell, broker.submit, _request("unified"))
    return broker, log


def _crash_journal() -> None:
    """Leave ``journal/`` as a crash does: two finished jobs in the
    snapshot, then a queued job, a coalesce, a cancel and a warm
    resubmission in the log of a broker that never shut down."""
    history = _broker(start=False, max_requeues=1)
    history.submit(_request("gdp"))
    history.submit(_request("naive", fault_spec="seed=3;raise:worker@1"))
    history.start()
    _settle(history)
    history.shutdown(drain=True)
    crashed = _broker(start=False)
    crashed.submit(_request("unified"))
    crashed.submit(_request("unified", tenant="other"))
    cancelled, _ = crashed.submit(_request("profilemax"))
    crashed.cancel(cancelled.id)
    crashed.submit(_request("gdp"))
    crashed.journal.close()


def _recover() -> Tuple[Broker, str]:
    """A fresh broker recovers ``journal/`` and runs what it requeued."""
    broker = _broker()
    return broker, _close(broker)


def _scenario_recover(cell: Dict[str, Any]) -> Tuple[Broker, str]:
    """Recovery from a crashed journal whose log ends in a record naming
    an unknown config field and a torn record."""
    _crash_journal()
    cell["crashed"] = [_read(os.path.join("journal", name))
                       for name in _JOURNAL_FILES]
    journal = Journal("journal")
    journal.load()
    journal.append("submit", job="j000099", key="-", bench="tiny",
                   source=SERVICE_SOURCE, config={"bogus": 1})
    journal.close()
    with open("journal/journal.ndjson", "a") as handle:
        handle.write('{"seq": 99, "kind": "fin')
    return _recover()


def _scenario_recover_parent(cell: Dict[str, Any]) -> Tuple[Broker, str]:
    """Recovery from :data:`PARENT_JOURNAL`."""
    os.mkdir("journal")
    for name in _JOURNAL_FILES:
        shutil.copy(PARENT_JOURNAL / name, os.path.join("journal", name))
    return _recover()


SCENARIOS: Dict[str, Callable[[Dict[str, Any]], Tuple[Broker, str]]] = {
    "coalesce": _scenario_coalesce,
    "crash": _scenario_crash,
    "cancel": _scenario_cancel,
    "backpressure": _scenario_backpressure,
    "drain": _scenario_drain,
    "recover": _scenario_recover,
    "recover-parent": _scenario_recover_parent,
}


def _drop_bytes(data: Any) -> Any:
    if not isinstance(data, dict):
        return data
    return {k: _drop_bytes(v) for k, v in data.items() if k != "bytes"}


def service_cells(names: Sequence[str], failures: List[str]) -> Cells:
    """SCENARIOS name -> ``{journal, snapshot, stats, jobs, errors}``.

    Pins what the job broker writes and serves, so a refactor of it can
    prove it changed neither: each cell runs one scripted scenario on a
    tiny inline program in a fresh temporary working directory (so the
    cache and journal paths the broker records are relative) and stores

    * ``journal`` -- the log's lines, byte for byte, as they stood right
      before the final shutdown compacted them;
    * ``snapshot`` -- ``snapshot.json``'s text after that shutdown;
    * ``stats`` -- ``Broker.stats()`` after it, through
      :func:`repro.resilience.scrub` (``uptime_seconds`` zeroed) and with
      the artifact cache's byte counts dropped;
    * ``jobs`` -- every job's ``to_dict(include_events=True)``, events
      scrubbed by ``scrub_events``;
    * ``errors`` -- what the scenario's refused calls returned;
    * ``crashed`` -- for ``recover`` only, the crashed journal's log and
      snapshot text: what :data:`PARENT_JOURNAL` holds.
    """
    cells: Cells = {}
    cwd = os.getcwd()
    for name in names:
        with tempfile.TemporaryDirectory(prefix="repro-service-identity-") as tmp:
            os.chdir(tmp)
            try:
                cell: Dict[str, Any] = {"errors": []}
                broker, log = SCENARIOS[name](cell)
                stats = scrub(broker.stats())
                stats["cache"] = _drop_bytes(stats["cache"])
                jobs = []
                for job in broker.jobs():
                    data = job.to_dict(include_events=True)
                    data["events"] = scrub_events(data["events"])
                    jobs.append(data)
                cells[name] = {
                    **cell,
                    "journal": log.splitlines(),
                    "snapshot": _read("journal/snapshot.json"),
                    "stats": stats,
                    "jobs": jobs,
                }
            finally:
                os.chdir(cwd)
    return cells


# -- the registry and the shared record / check / diff path --------------------


class Suite(NamedTuple):
    """One golden and the cell function that must reproduce it."""

    name: str
    golden: Path
    #: Every unit a full run computes (benches, or CLI cell names).
    units: Callable[[], Sequence[str]]
    #: Units -> ``{cell key: {field: value}}``.
    #: A cell function appends one line per unit that fails a gate -- a
    #: property it must hold whatever the golden says -- to its second
    #: argument.
    cells: Callable[[Sequence[str], List[str]], Cells]
    #: Written next to ``"cells"`` when the golden is recorded.
    header: Dict[str, Any]
    #: Count each field of a cell in the summary, not each cell.
    per_field: bool = False
    recordable: bool = True


SUITES: Dict[str, Suite] = {
    suite.name: suite
    for suite in (
        Suite("lint", GOLDENS / "lint_identity.json", names,
              lint_cells, {"modes": list(LINT_MODES)}, per_field=True),
        Suite("profile", GOLDENS / "profile_identity.json", names,
              profile_cells, {"modes": list(PROFILE_MODES)}, per_field=True),
        Suite("tiers", GOLDENS / "tier_identity.json", names,
              tier_cells, {"tiers": list(TIERS)}, per_field=True),
        Suite("rhop", GOLDENS / "rhop_identity.json", names,
              rhop_cells, {"latencies": list(RHOP_LATENCIES)}),
        Suite("rhop-shared", GOLDENS / "rhop_identity.json", names,
              rhop_shared_cells, {}, recordable=False),
        Suite("gdp", GOLDENS / "gdp_identity.json", names, gdp_cells,
              {"clusters": list(GDP_CLUSTERS), "ratios": list(GDP_RATIOS)}),
        Suite("scheme", GOLDENS / "scheme_identity.json",
              lambda: SCHEME_BENCHES, scheme_cells,
              {"fault_specs": list(FAULT_SPECS)}),
        Suite("cli", GOLDENS / "cli_identity.json", lambda: tuple(CELLS),
              cli_cells, {}),
        Suite("service", GOLDENS / "service_identity.json",
              lambda: tuple(SCENARIOS), service_cells, {}),
    )
}


def load_golden(suite: Suite) -> Cells:
    return json.loads(suite.golden.read_text())["cells"]


def compute(suite: Suite, units: Sequence[str],
            failures: Optional[List[str]] = None) -> Cells:
    """The suite's cells over ``units``, round-tripped through JSON so
    tuples compare equal to recorded lists; gate failures go to
    ``failures``."""
    cells = suite.cells(units, [] if failures is None else failures)
    return json.loads(json.dumps(cells))


def mismatches(golden: Cells, cells: Cells, complete: bool) -> List[str]:
    """One line per differing field of each computed cell; with
    ``complete`` a golden cell that was not computed is a mismatch too."""
    lines = []
    for key, cell in sorted(cells.items()):
        expected = golden.get(key)
        if expected is None:
            lines.append(f"{key}: not in the golden")
            continue
        for field in sorted(expected.keys() | cell.keys()):
            if expected.get(field) != cell.get(field):
                lines.append(f"{key}.{field}: expected "
                             f"{expected.get(field)!r}, got {cell.get(field)!r}")
    if complete:
        lines += [f"{key}: not computed"
                  for key in sorted(golden.keys() - cells.keys())]
    return lines


def _items(suite: Suite, cells: Cells) -> Dict[Any, Any]:
    """What the summary counts: cells, or each field of each cell."""
    if not suite.per_field:
        return cells
    return {(key, field): value
            for key, cell in cells.items() for field, value in cell.items()}


def record(suite: Suite, cells: Cells, complete: bool) -> None:
    """Write ``cells`` to the golden; a subset merges into what is there."""
    if not complete:
        cells = {**load_golden(suite), **cells}
    suite.golden.write_text(
        json.dumps({**suite.header, "cells": cells}, indent=1, sort_keys=True)
        + "\n"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suites", nargs="+", metavar="SUITE",
                        choices=sorted(SUITES), help=", ".join(SUITES))
    parser.add_argument("--record", action="store_true",
                        help="rewrite the golden instead of checking it "
                             "(a subset merges into it)")
    parser.add_argument("--only", action="append", metavar="UNIT",
                        help="restrict to this bench or CLI cell (repeatable)")
    args = parser.parse_args(argv)

    suites = [SUITES[name] for name in args.suites]
    for suite in suites:
        if args.record and not suite.recordable:
            parser.error(f"{suite.name} checks {suite.golden.name} "
                         f"but does not record it")
        unknown = sorted(set(args.only or ()) - set(suite.units()))
        if unknown:
            parser.error(f"{suite.name} has no unit(s) {', '.join(unknown)}")

    complete = args.only is None
    failed = 0
    for suite in suites:
        failures: List[str] = []
        cells = compute(suite, args.only or suite.units(), failures)
        for line in failures:
            print(f"FAIL {line}")
        failed += bool(failures)
        if args.record:
            record(suite, cells, complete)
            print(f"recorded {len(cells)} cell(s) to {suite.golden.name}")
            continue
        golden = load_golden(suite)
        bad = mismatches(golden, cells, complete)
        for line in bad:
            print(f"MISMATCH {line}")
        expected = _items(suite, golden)
        items = _items(suite, cells)
        matched = sum(1 for k, v in items.items() if expected.get(k) == v)
        print(f"{suite.name} identity: {matched}/{len(items)} "
              f"{'field' if suite.per_field else 'cell'}(s) match")
        failed += bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
