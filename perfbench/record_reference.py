"""Record the frozen reference results the benchmark checks against.

Run once, from the commit whose behaviour is the reference, at the root
of a checkout:

    python3 perfbench/record_reference.py

It writes ``perfbench/reference.json`` with

* ``cells`` — ``cycles`` and ``dynamic_moves`` of every ``compile_cold``
  and ``service_warm`` cell (bench x scheme at latency 5), run through
  the public sweep path with caching off;
* ``traces`` — each bench's unpartitioned ``print_int`` trace and the
  number of interpreted operations (no bench in the registry carries an
  ``expected_output``, so this recorded trace is the output reference).

Later runs never rewrite this file; a mismatch is a failed operation.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import COMPILE_BENCHES, SCHEMES, SERVICE_BENCHES, LATENCY  # noqa: E402


def record() -> dict:
    from repro.bench import all_benchmarks
    from repro.exec.engine import run_cell
    from repro.exec.runconfig import RunConfig
    from repro.pipeline.prepared import PreparedProgram

    traces = {}
    for bench in all_benchmarks():
        prepared = PreparedProgram.from_source(
            bench.source, bench.name, config=RunConfig(cache="off")
        )
        traces[bench.name] = {
            "output": list(prepared.profile.output),
            "steps": prepared.profile.instructions_executed,
        }
        print(f"trace {bench.name}: {len(prepared.profile.output)} value(s)",
              flush=True)
    cells = {}
    for bench in dict.fromkeys(COMPILE_BENCHES + SERVICE_BENCHES):
        for scheme in SCHEMES:
            config = RunConfig(scheme=scheme, latency=LATENCY, cache="off")
            cell = run_cell({"bench": bench, "config": config.to_dict()})
            if cell["status"] != "ok":
                raise SystemExit(f"{bench}/{scheme}: {cell['error']}")
            cells[f"{bench}/{scheme}"] = {
                "cycles": cell["cycles"],
                "dynamic_moves": cell["dynamic_moves"],
            }
            print(f"cell {bench}/{scheme}: {cell['cycles']:.0f}", flush=True)
    return {"latency": LATENCY, "cells": cells, "traces": traces}


if __name__ == "__main__":
    data = record()
    with open(os.path.join(HERE, "reference.json"), "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
