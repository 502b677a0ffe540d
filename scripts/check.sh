#!/usr/bin/env bash
# Static-analysis smoke test, split into individually invocable stages:
#
#   tools       ruff + mypy over the tree (strict on src/repro/lint/,
#               lenient elsewhere — see pyproject.toml); each is skipped
#               with a notice when the tool is not installed.
#   examples    `repro lint` over every example program: zero errors.
#   benches     `repro lint` over every bundled benchmark: zero errors;
#               then every bench's plain, --dynamic-oracle and prepared
#               lint report must hash to tests/goldens/lint_identity.json.
#   faults      fault-injection smoke (one spec per fault class) through
#               the resilient pipeline's degradation ladder.
#   ptdiff      points-to refinement differ over the whole suite.
#   staticdiff  static-vs-dynamic drift differ over the whole suite:
#               every static access bound must contain the observed
#               dynamic counts/regions (zero violations).
#   regioncheck region-granular MOD/REF checks over the whole suite:
#               the cross-tier region refinement chain holds on every
#               bench (zero errors), every scheme outcome passes the
#               region-located partition invariants with a sound
#               roofline ratio (>= 1.0), and >= 3 benches carry
#               region-splittable advisories.
#   rhop        computation-partitioner identity: every bench x scheme x
#               latency {1, 5, 10} cell reproduces the status, cycles,
#               dynamic moves and op->cluster assignment hash recorded in
#               tests/goldens/rhop_identity.json (228 cells).
#   cache       artifact cache smoke (cold vs warm Table-1 sweep).
#   service     job-server smoke: `repro serve` on an ephemeral port,
#               healthz, a small concurrent loadtest burst (zero lost
#               jobs, duplicates deduped), then graceful shutdown.
#   chaos       durability smoke: SIGKILL a journaled server mid-burst,
#               restart + recover (zero lost jobs, byte-identical
#               results), flip bytes in cache artifacts (quarantine +
#               self-heal), and a bounded-queue backpressure loadtest
#               (429 + Retry-After absorbed by client backoff).
#   perfbench   the benchmark harness's own tests (perfbench/test_stats.py)
#               plus a one-second traced compile_cold run: it imports every
#               layer boundary the benchmark wraps and re-checks 20 cells'
#               cycles, moves and print traces against perfbench's
#               reference; the run's last JSON line must say "failed": 0.
#
# Usage: scripts/check.sh [stage ...]   (from the repository root)
#        no arguments runs every stage in order.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

STAGES="tools examples benches faults ptdiff staticdiff regioncheck rhop cache service chaos perfbench"
failures=0

note() { printf '== %s\n' "$*"; }

# -- tools: optional ruff / mypy gates ----------------------------------------

stage_tools() {
    if command -v ruff >/dev/null 2>&1; then
        note "ruff check"
        ruff check src tests benchmarks examples || failures=$((failures + 1))
    else
        note "ruff not installed - skipping (config lives in pyproject.toml)"
    fi

    if command -v mypy >/dev/null 2>&1; then
        note "mypy (strict on repro.lint)"
        mypy || failures=$((failures + 1))
    else
        note "mypy not installed - skipping (config lives in pyproject.toml)"
    fi
}

# -- examples: lint every example program -------------------------------------

stage_examples() {
    note "repro lint over examples/ SOURCE programs"
    for example in examples/*.py; do
        if grep -q '^SOURCE = """' "$example"; then
            if python -m repro lint "$example"; then
                note "ok: $example"
            else
                note "FAIL: $example"
                failures=$((failures + 1))
            fi
        fi
    done
}

# -- benches: lint every bundled benchmark (zero errors, identical reports) ---

stage_benches() {
    note "repro lint over the bundled benchmark suite"
    python - <<'PY' || failures=$((failures + 1))
import sys

from repro.bench import all_benchmarks
from repro.lang import compile_source
from repro.lint import lint_module

bad = 0
for bench in all_benchmarks():
    report = lint_module(compile_source(bench.source, bench.name))
    status = "FAIL" if report.has_errors else "ok"
    print(f"{status}: bench {bench.name}: {report.summary()}")
    if report.has_errors:
        print(report.render_text())
        bad += 1
sys.exit(1 if bad else 0)
PY

    note "lint identity (all benches x plain/oracle/prepared vs golden)"
    python scripts/lint_identity.py || failures=$((failures + 1))
}

# -- faults: fault-injection smoke (one spec per fault class) -----------------
# Persistent faults must be survived via the degradation ladder with the
# fallback recorded in the run report.  Exit codes are the uniform CLI
# contract: 0 = clean, 1 = degraded-but-survived (fell back), 2 = hard
# failure (never acceptable here).

stage_faults() {
    note "fault-injection smoke (resilient pipeline, one spec per fault class)"
    python - <<'PY' || failures=$((failures + 1))
import json
import sys
import tempfile

from repro.cli import main

# (spec, expect_fallback, expect_invalid): persistent raise / corrupt-homes
# faults must be survived by falling down the ladder; unlock and slow-moves
# must at least fire and finish (unlock is repaired or caught depending on
# the victim).  Corrupted homes leave the scheme running to completion, so
# the fallback must come from the validity check (an attempt with status
# "invalid"), not from a crash.
SPECS = [
    ("seed=7;raise:gdp", True, False),
    ("seed=7;corrupt-homes:gdp:2", True, True),
    ("seed=7;unlock:gdp:4", None, False),
    ("seed=7;slow-moves:4", None, False),
    # A dead profiler degrades to the static profile rung, not to naive:
    # the run must end on a profile-guided scheme with the fallback logged.
    ("seed=7;raise:profiler", True, False),
]

bad = 0
for spec, expect_fallback, expect_invalid in SPECS:
    with tempfile.NamedTemporaryFile("r", suffix=".json") as tmp:
        code = main([
            "partition", "examples/quickstart.py",
            "--fallback", "--retries", "1",
            "--fault-spec", spec, "--run-report", tmp.name,
        ])
        report = json.load(open(tmp.name))
    faults = report["summary"]["faults"]
    fallbacks = report["summary"]["fallbacks"]
    expected_code = 1 if fallbacks >= 1 else 0
    invalid = sum(
        1 for e in report["events"]
        if e["kind"] == "attempt" and e["status"] == "invalid"
    )
    ok = (
        code == expected_code
        and faults >= 1
        and report["final"]["status"] == "ok"
        and (expect_fallback is None or (fallbacks >= 1) == expect_fallback)
        and (not expect_invalid or invalid >= 1)
    )
    print(f"{'ok' if ok else 'FAIL'}: --fault-spec '{spec}' "
          f"(exit {code}, {faults} fault(s), {fallbacks} fallback(s), "
          f"{invalid} invalid attempt(s), final {report['final']['scheme']})")
    bad += 0 if ok else 1
sys.exit(1 if bad else 0)
PY
}

# -- ptdiff: points-to refinement differ over the whole suite -----------------
# Every sharper tier must be a refinement of the tier below on every
# benchmark (pts_cs ⊆ pts_field ⊆ pts_andersen per memory op), and every
# tier must contain the objects the interpreter actually touches.

stage_ptdiff() {
    note "points-to refinement differ (all benches x all tiers + dynamic oracle)"
    python - <<'PY' || failures=$((failures + 1))
import sys

from repro.bench import all_benchmarks
from repro.lang import compile_source
from repro.lint import diff_tiers
from repro.profiler import Interpreter

bad = 0
for bench in all_benchmarks():
    module = compile_source(bench.source, bench.name)
    interp = Interpreter(module)
    interp.run()
    report = diff_tiers(module, profile=interp.profile)
    avg = " ".join(
        f"{t}={report.stats[t]['avg_set_size']}" for t in report.stats
    )
    status = "FAIL" if report.has_errors else "ok"
    print(f"{status}: differ {bench.name}: {report.summary()} ({avg})")
    if report.has_errors:
        print(report.render_text())
        bad += 1
sys.exit(1 if bad else 0)
PY
}

# -- staticdiff: static-vs-dynamic drift differ over the whole suite ----------
# The abstract-interpretation access bounds must *contain* what the
# interpreter actually observes on every benchmark: every executed block
# within its static bound, every op's access weight within its bound,
# every touched byte region inside its static region.  Zero violations.

stage_staticdiff() {
    note "static-vs-dynamic drift differ (all benches, zero violations)"
    python - <<'PY' || failures=$((failures + 1))
import sys

from repro.bench import all_benchmarks
from repro.lang import compile_source
from repro.lint import diff_static_dynamic
from repro.profiler import Interpreter

bad = 0
for bench in all_benchmarks():
    module = compile_source(bench.source, bench.name)
    interp = Interpreter(module)
    interp.run()
    report = diff_static_dynamic(module, interp.profile)
    s = report.stats["staticdiff"]
    status = "FAIL" if report.has_errors else "ok"
    print(f"{status}: staticdiff {bench.name}: "
          f"{s['violations']} violation(s), "
          f"{s['ops_finite_bound']}/{s['ops_compared']} ops finite, "
          f"{s['blocks_bounded']}/{s['blocks_measured']} blocks bounded, "
          f"median weight ratio {s['median_weight_ratio']}")
    if report.has_errors:
        print(report.render_text())
        bad += 1
sys.exit(1 if bad else 0)
PY
}

# -- regioncheck: region-granular MOD/REF checks over the whole suite ---------
# The cross-tier region refinement chain must hold on every bench, every
# scheme outcome must satisfy the region-located partition invariants
# (zero ERROR findings) with a sound roofline ratio, and the suite must
# carry at least three region-splittable advisories — the acceptance
# gates of benchmarks/bench_region_interference.py at CI scale.

stage_regioncheck() {
    note "region-granular checks (refinement chain, outcome invariants, roofline)"
    python - <<'PY' || failures=$((failures + 1))
import sys

from repro.bench import all_benchmarks
from repro.lint import check_region_outcome, lint_module
from repro.machine import two_cluster_machine
from repro.pipeline import (
    PreparedProgram,
    run_gdp,
    run_naive,
    run_profile_max,
    run_unified,
)

SCHEMES = (
    ("gdp", run_gdp), ("profilemax", run_profile_max),
    ("naive", run_naive), ("unified", run_unified),
)
machine = two_cluster_machine(move_latency=5)
bad = 0
splittable_benches = []
for bench in all_benchmarks():
    prepared = PreparedProgram.from_source(bench.source, bench.name)
    lint = lint_module(prepared.module, only=["regioncheck"])
    advisories = sum(
        1 for d in lint.diagnostics if d.rule == "region-splittable"
    )
    if advisories:
        splittable_benches.append(bench.name)
    errors = len(lint.errors)
    worst = 1.0
    for name, run in SCHEMES:
        outcome = run(prepared, machine)
        report = check_region_outcome(prepared, outcome)
        errors += len(report.errors)
        for diag in report.errors:
            print(f"  {name}: {diag.render()}")
        ratio = (outcome.roofline or {}).get("ratio", 0.0)
        worst = max(worst, ratio)
        if outcome.roofline is None or ratio < 1.0:
            print(f"  {name}: unsound roofline {outcome.roofline}")
            errors += 1
    status = "FAIL" if errors else "ok"
    print(f"{status}: regioncheck {bench.name}: {errors} error(s), "
          f"{advisories} splittable advisory(ies), "
          f"worst roofline x{worst:.2f}")
    bad += 1 if errors else 0
if len(splittable_benches) < 3:
    print(f"FAIL: only {splittable_benches} carry region-splittable "
          f"advisories (need >= 3 benches)")
    bad += 1
else:
    print(f"ok: splittable advisories on {splittable_benches}")
sys.exit(1 if bad else 0)
PY
}

# -- rhop: computation-partitioner identity against the recorded golden -------

stage_rhop() {
    note "RHOP identity (all benches x schemes x latencies 1/5/10 vs golden)"
    python scripts/rhop_identity.py || failures=$((failures + 1))
}

# -- cache: artifact cache smoke (cold vs warm Table-1 sweep) -----------------
# The Table-1 sweep (all benches x all schemes, --jobs 2) runs twice
# against a throwaway cache root: the second pass must serve >= 90% of
# its cells from the outcome cache and reproduce every cell's result
# exactly (cycles / moves / ran-as; the run *reports* legitimately
# differ — a warm cell records no partitioner attempts).  Finishes with
# a `repro cache stats` / `cache gc` smoke over the same store.

stage_cache() {
    note "artifact cache smoke (Table-1 sweep twice, --jobs 2, >=90% warm hits)"
    CACHE_TMP="$(mktemp -d)"
    trap 'rm -rf "$CACHE_TMP"' EXIT
    REPRO_CHECK_CACHE_DIR="$CACHE_TMP" python - <<'PY' || failures=$((failures + 1))
import os
import sys

from repro.bench import names as bench_names
from repro.exec import ParallelRunner, RunConfig

config = RunConfig(jobs=2, cache="on",
                   cache_dir=os.environ["REPRO_CHECK_CACHE_DIR"])
runner = ParallelRunner(config)
cold = runner.sweep(bench_names())
warm = runner.sweep(bench_names())
ratio = warm.cache_hit_ratio("outcome")
RESULT_FIELDS = ("bench", "scheme", "latency", "pointsto_tier", "seed",
                 "status", "ran_as", "cycles", "dynamic_moves")
same = all(
    all(c[f] == w[f] for f in RESULT_FIELDS)
    for c, w in zip(cold.cells, warm.cells)
)
statuses = warm.counts()
print(f"cold {cold.wall_seconds:.2f}s, warm {warm.wall_seconds:.2f}s, "
      f"warm outcome hit ratio {ratio:.2f}, cells {statuses}")
bad = 0
if ratio < 0.9:
    print(f"FAIL: warm hit ratio {ratio:.2f} < 0.90")
    bad += 1
if not same:
    print("FAIL: warm sweep results differ from cold")
    bad += 1
if statuses["failed"] or statuses["degraded"]:
    print(f"FAIL: unexpected non-ok cells: {statuses}")
    bad += 1
print(("ok" if not bad else "FAIL") + ": cold/warm Table-1 sweep")
sys.exit(1 if bad else 0)
PY

    note "repro cache stats / gc smoke"
    {
        python -m repro cache stats --cache-dir "$CACHE_TMP" \
            && python -m repro cache gc --cache-dir "$CACHE_TMP" --max-age-days 30 \
            && python -m repro cache gc --cache-dir "$CACHE_TMP" --max-bytes 0 \
            && python -m repro cache stats --cache-dir "$CACHE_TMP" --format json \
                | python -c 'import json,sys; s=json.load(sys.stdin); sys.exit(0 if s["entries"] == 0 else 1)' \
            && note "ok: cache stats/gc"
    } || { note "FAIL: cache stats/gc"; failures=$((failures + 1)); }
}

# -- service: job-server smoke (serve, loadtest burst, graceful shutdown) -----
# `repro serve --port 0` in a subprocess, parse the announced URL, probe
# /v1/healthz, drive a small concurrent loadtest burst against it (every
# submission accounted for, duplicates coalesced or warm-served), then
# POST /v1/shutdown and require a clean exit 0 from the server process.

stage_service() {
    note "service smoke (repro serve + concurrent loadtest + graceful shutdown)"
    python - <<'PY' || failures=$((failures + 1))
import json
import subprocess
import sys
import tempfile
import urllib.request

proc = subprocess.Popen(
    [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2",
     "--cache-dir", tempfile.mkdtemp(prefix="repro-check-service-")],
    stdout=subprocess.PIPE, text=True,
)
banner = proc.stdout.readline().strip()  # "serving on http://HOST:PORT (...)"
url = banner.split()[2]
print(f"ok: {banner}")
bad = 0
try:
    with urllib.request.urlopen(f"{url}/v1/healthz", timeout=10) as resp:
        health = json.load(resp)
    ok = health.get("status") == "ok" and health.get("workers_alive") == 2
    print(f"{'ok' if ok else 'FAIL'}: healthz {health}")
    bad += 0 if ok else 1

    load = subprocess.run(
        [sys.executable, "scripts/loadtest.py", "--url", url,
         "--submissions", "48", "--threads", "8"],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        checks = json.loads(load.stdout)["checks"]
    except (json.JSONDecodeError, KeyError):
        checks = {"summary_unparseable": False}
    ok = load.returncode == 0 and all(checks.values())
    print(f"{'ok' if ok else 'FAIL'}: loadtest exit {load.returncode}, "
          f"checks {checks}")
    bad += 0 if ok else 1

    request = urllib.request.Request(
        f"{url}/v1/shutdown", data=b"{}", method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as resp:
        print(f"ok: shutdown accepted {json.load(resp)}")
    code = proc.wait(timeout=60)
    print(f"{'ok' if code == 0 else 'FAIL'}: server exited {code}")
    bad += 0 if code == 0 else 1
finally:
    if proc.poll() is None:
        proc.kill()
sys.exit(1 if bad else 0)
PY
}

stage_chaos() {
    note "chaos smoke (SIGKILL + recovery, cache corruption self-heal)"
    python scripts/chaostest.py --short || failures=$((failures + 1))

    note "backpressure smoke (bounded queue, 429 + client backoff)"
    python - <<'PY' || failures=$((failures + 1))
import json
import subprocess
import sys

load = subprocess.run(
    [sys.executable, "scripts/loadtest.py", "--submissions", "48",
     "--threads", "8", "--workers", "1", "--max-depth", "1"],
    stdout=subprocess.PIPE, text=True,
)
try:
    summary = json.loads(load.stdout)
    checks = summary["checks"]
    retries = summary["client_429_retries"]
except (json.JSONDecodeError, KeyError):
    checks, retries = {"summary_unparseable": False}, 0
ok = load.returncode == 0 and all(checks.values())
print(f"{'ok' if ok else 'FAIL'}: loadtest exit {load.returncode}, "
      f"429 retries {retries}, checks {checks}")
sys.exit(0 if ok else 1)
PY
}

# -- perfbench: benchmark harness tests + a traced reference-checked run ------
# perfbench/run.py exits 0 even when its reference check fails, so the
# verdict is read from the "failed" count on its last (JSON) output line.

stage_perfbench() {
    note "perfbench harness tests"
    python -m pytest -q perfbench/test_stats.py || failures=$((failures + 1))

    note "perfbench traced compile_cold run (reference-checked, failed == 0)"
    PERF_OUT="$(mktemp)"
    python3 perfbench/run.py --workload compile_cold --seed 0 --seconds 1 \
        --trace 1 > "$PERF_OUT"
    code=$?
    grep '^FAILED' "$PERF_OUT"
    if [ "$code" -eq 0 ] && tail -n 1 "$PERF_OUT" | python -c '
import json, sys
result = json.loads(sys.stdin.read())
failed, attempted = result["failed"], result["attempted"]
print(f"failed {failed} of {attempted} checked operation(s)")
sys.exit(0 if failed == 0 else 1)
'; then
        note "ok: perfbench compile_cold"
    else
        note "FAIL: perfbench compile_cold (exit $code)"
        failures=$((failures + 1))
    fi
    rm -f "$PERF_OUT"
}

# -- dispatch -----------------------------------------------------------------

if [ "$#" -eq 0 ]; then
    run="$STAGES"
else
    run="$*"
    for stage in $run; do
        case " $STAGES " in
            *" $stage "*) ;;
            *)
                note "unknown stage '$stage' (stages: $STAGES)"
                exit 2
                ;;
        esac
    done
fi

for stage in $run; do
    "stage_$stage"
done

if [ "$failures" -ne 0 ]; then
    note "$failures check group(s) failed"
    exit 1
fi
note "all checks passed"
