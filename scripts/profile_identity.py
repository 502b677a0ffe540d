"""Profile identity check: every bench must reproduce the recorded
execution profile, byte for byte, in each of three modes.

The golden (``tests/goldens/profile_identity.json``) pins, per bench and
mode, the SHA-256 of the canonical ProfileData the interpreter fills in:
block counts, op -> object counts, op -> object byte regions, heap sizes,
call counts, ``instructions_executed`` and the print trace.  It also pins
``main``'s return value and the step count in the clear.  A change to how
the interpreter executes a module can therefore prove the profile the
partitioners consume did not move.

Op uids come from a process-global counter, so ops are keyed by
``(function, block, index)`` instead.  Every dict is serialized as a list
in insertion order, so the golden also pins the order in which entries
are first created (first execution order).

The first two modes are the two modules the suite is interpreted on:

* ``plain`` -- a ``compile_source`` module, as ``repro lint
  --dynamic-oracle`` profiles it;
* ``prepared`` -- the unrolled, optimized, renumbered module a dynamic
  ``PreparedProgram.from_source`` profiles.

The third, ``static``, is the profile a static ``PreparedProgram``
derives without running anything: the same counters plus the sound side
tables (``block_bounds``, ``op_weight_bounds``, ``static_regions`` and
``object_static_regions``).  Its ``result`` is ``null`` and its
``steps`` the estimated instruction count.  Region dicts are written in
sorted key order, the only ones not pinned in insertion order: the
static analysis fills them from sets of object ids.

Run from the repository root with ``PYTHONPATH=src``:

    python scripts/profile_identity.py              # check every bench
    python scripts/profile_identity.py --record     # rewrite the golden
    python scripts/profile_identity.py --bench fir  # check a subset
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "goldens" / "profile_identity.json"
MODES = ("plain", "prepared", "static")


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


def _modules(bench):
    from repro.ir import renumber_ops
    from repro.lang import compile_source
    from repro.opt import optimize_module
    from repro.pipeline import PreparedProgram

    yield "plain", compile_source(bench.source, bench.name)
    prepared = compile_source(
        bench.source, bench.name,
        unroll_factor=PreparedProgram.DEFAULT_UNROLL, if_convert=True,
    )
    optimize_module(prepared)
    renumber_ops(prepared)
    yield "prepared", prepared


def _cell(canonical: Dict[str, Any], result, steps: int) -> Dict[str, Any]:
    text = json.dumps(canonical, separators=(",", ":"))
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "result": result,
        "steps": steps,
    }


def compute_cells(
    benches: Optional[Iterable[str]] = None,
) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """bench -> mode -> {sha256, result, steps}."""
    from repro.bench import all_benchmarks, get
    from repro.exec.runconfig import RunConfig
    from repro.pipeline import PreparedProgram
    from repro.profiler import Interpreter

    chosen = (
        [get(name) for name in benches] if benches is not None
        else all_benchmarks()
    )
    cells: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for bench in chosen:
        cells[bench.name] = {}
        for mode, module in _modules(bench):
            interp = Interpreter(module)
            result = interp.run()
            cells[bench.name][mode] = _cell(
                canonical_profile(module, interp.profile), result,
                interp.profile.instructions_executed)
        static = PreparedProgram.from_source(
            bench.source, bench.name, config=RunConfig(profile="static"))
        cells[bench.name]["static"] = _cell(
            canonical_static_profile(static.module, static.profile), None,
            static.profile.instructions_executed)
    return cells


def load_golden() -> Dict[str, Dict[str, Dict[str, Any]]]:
    return json.loads(GOLDEN.read_text())["cells"]


def mismatches(
    cells: Dict[str, Dict[str, Dict[str, Any]]], complete: bool = False
) -> List[str]:
    """One line per bench x mode that differs from the golden; with
    ``complete`` a golden bench that was not computed is a mismatch too."""
    golden = load_golden()
    lines = [
        f"{bench}/{mode}: expected {golden.get(bench, {}).get(mode)}, "
        f"got {cell}"
        for bench, modes in sorted(cells.items())
        for mode, cell in modes.items()
        if golden.get(bench, {}).get(mode) != cell
    ]
    if complete:
        lines += [f"{bench}: not computed"
                  for bench in sorted(set(golden) - set(cells))]
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite the golden instead of checking it")
    parser.add_argument("--bench", action="append",
                        help="restrict to this bench (repeatable)")
    args = parser.parse_args(argv)

    cells = compute_cells(args.bench)
    if args.record:
        GOLDEN.write_text(
            json.dumps({"modes": list(MODES), "cells": cells},
                       indent=1, sort_keys=True) + "\n"
        )
        print(f"recorded {len(cells)} bench(es) to {GOLDEN.name}")
        return 0
    bad = mismatches(cells, complete=args.bench is None)
    for line in bad:
        print(f"MISMATCH {line}")
    total = len(cells) * len(MODES)
    print(f"profile identity: {total - len(bad)}/{total} profile(s) match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
