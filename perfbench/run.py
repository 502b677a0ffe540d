"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload compile_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program under test is imported
from ``src/``.  Human-readable lines (host record, notes, one line per
metric, failures) come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``).  ``failed / attempted`` is the
workload's error rate.  ``--workload all`` runs every workload in its own
process and ends with one combined line whose metric names carry a
``<workload>/`` prefix.  Exits 2 without a result when ``src/repro`` is
missing or a workload raises.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program to measure ({src}/repro is missing)",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    from host import host_record, load1
    from workloads import RUNNERS, WORKLOADS, Context

    host = host_record(ROOT, src)
    ctx = Context(ROOT, args.seed, args.seconds, bool(args.trace))
    # Nothing may fall back to the user's default artifact cache.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(ctx.tmp, "default-cache")
    try:
        end_to_end, per_layer = RUNNERS[args.workload](ctx)
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(ctx.tmp))
        except OSError:
            pass
    host["load1_after"] = load1()

    values = per_layer if args.trace else end_to_end
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = {m["name"] for m in wanted} - set(values)
    extra = set(values) - {m["name"] for m in wanted}
    if missing or extra:
        print(f"perfbench: metric mismatch, missing {sorted(missing)}, "
              f"extra {sorted(extra)}", file=sys.stderr)
        return 2
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }

    meta = WORKLOADS[args.workload]
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    print(f"workload {args.workload} (seed {args.seed}, "
          f"{args.seconds:g}s, trace {args.trace}): {why}")
    print(f"  stresses: {', '.join(meta['stresses'])}")
    print(f"  bypasses: {', '.join(meta['bypasses'])}")
    print("host " + json.dumps(host, sort_keys=True))
    for line in ctx.notes:
        print("note " + line)
    for op, reasons in ctx.tally.reasons().items():
        print(f"FAILED {op}: {'; '.join(reasons)}")
    print(f"error_rate {ctx.tally.error_rate:.6f} ratio "
          f"({ctx.tally.failed}/{ctx.tally.attempted})")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": ctx.tally.failed == 0,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args, spec) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"perfbench: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
