#!/usr/bin/env bash
# Static-analysis smoke test, split into individually invocable stages:
#
#   tools       ruff + mypy over the tree (strict on src/repro/lint/,
#               lenient elsewhere — see pyproject.toml); each is skipped
#               with a notice when the tool is not installed.  Without
#               ruff, scripts/ benchmarks/ examples/ perfbench/ are
#               byte-compiled instead (bytecode to a temporary directory),
#               so a syntax error in a file tier-1 never imports still
#               fails the stage, and scripts/deadcode.py's stdlib F401
#               (unused imports in src/ tests/ scripts/) stands in for
#               ruff's.  Always: deadcode.py's census fails on a keyword
#               default in src/repro that no non-test caller sets, unless
#               its allow-list names it with a reason.
#   examples    `repro lint` over every example program: zero errors;
#               then every CLI invocation of the `cli` identity suite must
#               reproduce the exit code, scrubbed output and run report
#               recorded in tests/goldens/cli_identity.json (33 cells).
#   benches     every bench's plain, --dynamic-oracle and prepared lint
#               report must hash to tests/goldens/lint_identity.json, with
#               zero ERRORs in the plain and --dynamic-oracle reports (a
#               bench with one fails, its report printed): the oracle
#               report runs the points-to refinement differ
#               (cs <= field <= andersen, every observed target in every
#               tier) and the static-vs-dynamic drift differ (every static
#               bound contains the measured profile); every bench's plain
#               and prepared interpreter profile (counts, regions, heap
#               sizes, steps, output, return value) and its static profile
#               (plus bounds and static regions) must match
#               tests/goldens/profile_identity.json (identity suites
#               `lint` and `profile`).
#   faults      every scheme x fault-spec cell of rawcaudio/fir/huffman
#               must reproduce tests/goldens/scheme_identity.json (144
#               cells; identity suite `scheme`).  The CLI runs of one spec
#               per fault class are `cli` cells (stage `examples`).
#   regioncheck every bench x tier's GDP region report and field/cs static
#               profile must match tests/goldens/tier_identity.json
#               (identity suite `tiers`), whose gate also needs zero
#               region errors, the cross-tier region refinement chain and
#               every scheme's region invariants with a sound roofline
#               ratio (>= 1.0) at andersen, and >= 3 benches carrying
#               region-splittable advisories.
#   rhop        computation-partitioner identity: every bench x scheme x
#               latency {1, 5, 10} cell reproduces the status, cycles,
#               dynamic moves and op->cluster assignment hash recorded in
#               tests/goldens/rhop_identity.json (228 cells), once with the
#               cache off (identity suite `rhop`) and once through one fresh
#               shared cache store (`rhop-shared`, where Unified, Naive and
#               Profile Max share the unlocked RHOP pass); then GDP's own
#               object homes, cluster bytes and group cut for every bench x
#               k {2, 4} x the five size-imbalance ratios of the Section 4.3
#               ablation must match tests/goldens/gdp_identity.json (190
#               cells; identity suite `gdp`), so a moved home fails here.
#   cache       artifact cache smoke (cold vs warm Table-1 sweep; the cold
#               sweep stores one unlocked RHOP pass per bench/latency/tier).
#   service     scripted broker scenarios (coalescing, crash + requeue,
#               cancel, 429s, drain, journal recovery -- also of a journal
#               an older broker wrote) must reproduce the journal bytes,
#               stats and job events in tests/goldens/service_identity.json
#               (identity suite `service`); then a job-server smoke:
#               `repro serve` on an ephemeral port, healthz, a small
#               concurrent loadtest burst (zero lost jobs, duplicates
#               deduped), then graceful shutdown.
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
# Every identity suite runs through scripts/identity.py SUITE..., which
# also records a golden (--record) and checks a subset (--only UNIT).
#
# Usage: scripts/check.sh [stage ...]   (from the repository root)
#        no arguments runs every stage in order.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

STAGES="tools examples benches faults regioncheck rhop cache service chaos perfbench"
failures=0

note() { printf '== %s\n' "$*"; }

# -- tools: optional ruff / mypy gates ----------------------------------------

stage_tools() {
    if command -v ruff >/dev/null 2>&1; then
        note "ruff check"
        ruff check src tests benchmarks examples || failures=$((failures + 1))
        deadcode="census"
    else
        note "ruff not installed - byte-compiling what tier-1 never imports"
        pycache="$(mktemp -d)"
        PYTHONPYCACHEPREFIX="$pycache" python -m compileall -q \
            scripts benchmarks examples perfbench || failures=$((failures + 1))
        rm -rf "$pycache"
        deadcode="imports census"
    fi
    note "deadcode $deadcode"
    python scripts/deadcode.py $deadcode || failures=$((failures + 1))

    if command -v mypy >/dev/null 2>&1; then
        note "mypy (strict on repro.lint)"
        mypy || failures=$((failures + 1))
    else
        note "mypy not installed - skipping (config lives in pyproject.toml)"
    fi
}

# -- examples: lint every example program, then the CLI identity matrix ------

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

    note "cli identity (argv matrix: exit codes, output, run reports vs golden)"
    python scripts/identity.py cli || failures=$((failures + 1))
}

# -- benches: lint and profile every bundled benchmark against the goldens ---

stage_benches() {
    note "lint identity (all benches x plain/oracle/prepared vs golden, zero" \
        "plain and oracle errors), profile identity (all benches x" \
        "plain/prepared/static vs golden)"
    python scripts/identity.py lint profile || failures=$((failures + 1))
}

# -- faults: every scheme x fault-spec cell against the recorded golden ------
# The CLI's one-spec-per-fault-class runs are cells of the `cli` suite
# (`examples` stage); tests/test_identity.py checks their degrade-and-survive
# properties in that golden.

stage_faults() {
    note "scheme identity (rawcaudio/fir/huffman x schemes x fault specs vs golden)"
    python scripts/identity.py scheme || failures=$((failures + 1))
}

# -- regioncheck: region-granular MOD/REF checks over the whole suite ---------
# Suite `tiers` pins every bench x tier's GDP region report and field/cs
# static profile, and its gate is the acceptance gate of
# benchmarks/bench_region_interference.py at CI scale: zero region ERRORs
# at every tier; at andersen also the prepared module's region
# refinement chain, every scheme's region invariants and a sound roofline
# ratio (>= 1.0); and region-splittable advisories on >= 3 benches.

stage_regioncheck() {
    note "tier identity (all benches x tiers: GDP region report, static" \
        "profile at field/cs vs golden; region and roofline gate)"
    python scripts/identity.py tiers || failures=$((failures + 1))
}

# -- rhop: partitioner identity (RHOP and GDP) against the recorded goldens ----

stage_rhop() {
    note "RHOP identity (all benches x schemes x latencies 1/5/10 vs golden)," \
        "cache off and through one shared cache store; GDP identity (all" \
        "benches x k 2/4 x imbalance ratios vs golden)"
    python scripts/identity.py rhop rhop-shared gdp || failures=$((failures + 1))
}

# -- cache: artifact cache smoke (cold vs warm Table-1 sweep) -----------------
# The Table-1 sweep (all benches x all schemes, --jobs 2) runs twice
# against a throwaway cache root: the second pass must serve >= 90% of
# its cells from the outcome cache and reproduce every cell's result
# exactly (cycles / moves / ran-as; the run *reports* legitimately
# differ — a warm cell records no partitioner attempts).  The cold sweep
# must leave exactly one shared unlocked-RHOP artifact per distinct
# (bench, latency, points-to tier).  Finishes with a `repro cache stats`
# / `cache gc` smoke over the same store.

stage_cache() {
    note "artifact cache smoke (Table-1 sweep twice, --jobs 2, >=90% warm hits)"
    CACHE_TMP="$(mktemp -d)"
    trap 'rm -rf "$CACHE_TMP"' EXIT
    REPRO_CHECK_CACHE_DIR="$CACHE_TMP" python - <<'PY' || failures=$((failures + 1))
import os
import sys

from repro.bench import names as bench_names
from repro.exec import ArtifactCache, ParallelRunner, RunConfig

config = RunConfig(jobs=2, cache="on",
                   cache_dir=os.environ["REPRO_CHECK_CACHE_DIR"])
runner = ParallelRunner(config)
cold = runner.sweep(bench_names())
triples = {(c["bench"], c["latency"], c["pointsto_tier"]) for c in cold.cells}
disk = ArtifactCache(config.cache_dir, "readonly").stats()["disk"]
rhop_entries = disk.get("rhop", {}).get("entries", 0)
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
print(f"cold sweep stored {rhop_entries} rhop artifact(s) for "
      f"{len(triples)} (bench, latency, tier) triple(s)")
bad = 0
if rhop_entries != len(triples):
    print(f"FAIL: {rhop_entries} rhop artifact(s), expected {len(triples)}")
    bad += 1
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
    note "service identity (scripted broker scenarios vs golden)"
    python scripts/identity.py service || failures=$((failures + 1))

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
