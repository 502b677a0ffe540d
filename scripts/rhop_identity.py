"""RHOP identity check: every bench x scheme x latency cell must reproduce
the recorded status, cycles, dynamic moves and op->cluster assignment.

The golden (``tests/goldens/rhop_identity.json``) pins what the
computation partitioner decides, so a change meant to make it faster can
prove it changed nothing else.  Each cell stores

* ``status`` -- ``ok``, or ``degraded`` when the ladder fell back;
* ``cycles`` and ``dynamic_moves`` of the evaluated outcome;
* ``assignment_sha256`` -- SHA-256 of the outcome's op->cluster map,
  keyed by ``func:block:index`` (:func:`repro.exec.artifacts.stable_op_keys`)
  so it is independent of process-global op uids.

By default every cell runs with the artifact cache off.  With
``--cache-dir DIR`` the same cells run through one shared store in
``DIR``, so Unified, Naïve and Profile Max's first pass share one
unlocked RHOP pass per (bench, latency) through its ``rhop`` artifact;
they must still match the same golden.  Point it at an empty directory:
outcomes a previous run left there are served without partitioning.

Run from the repository root with ``PYTHONPATH=src``:

    python scripts/rhop_identity.py              # check every cell
    python scripts/rhop_identity.py --record     # rewrite the golden
    python scripts/rhop_identity.py --bench fir  # check a subset
    python scripts/rhop_identity.py --cache-dir "$(mktemp -d)"
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "goldens" / "rhop_identity.json"
LATENCIES = (1, 5, 10)


def assignment_sha256(outcome) -> str:
    """SHA-256 of the stable-keyed op->cluster assignment."""
    from repro.exec.artifacts import stable_op_keys

    keys = stable_op_keys(outcome.module)
    pairs = sorted(
        [keys[uid], cluster]
        for uid, cluster in outcome.assignment.items()
        if uid in keys
    )
    blob = json.dumps(pairs, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def compute_cells(
    benches: Optional[Iterable[str]] = None,
    latencies: Iterable[int] = LATENCIES,
    cache_dir: Optional[str] = None,
) -> Dict[str, Dict[str, object]]:
    """``"bench/scheme/latency"`` -> cell, default seed; cache off, or
    on with one shared store when ``cache_dir`` is given."""
    from repro.bench import all_benchmarks, get
    from repro.exec.runconfig import SCHEMES, RunConfig
    from repro.pipeline import Pipeline

    chosen = (
        [get(name) for name in benches] if benches is not None
        else all_benchmarks()
    )
    base = (
        RunConfig(cache="off") if cache_dir is None
        else RunConfig(cache="on", cache_dir=cache_dir)
    )
    cells: Dict[str, Dict[str, object]] = {}
    for bench in chosen:
        # The prepared program does not depend on the move latency.
        prepared = Pipeline(base).prepare(
            bench.source, bench.name
        )
        for latency in latencies:
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


def load_golden() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN.read_text())["cells"]


def mismatches(
    cells: Dict[str, Dict[str, object]], complete: bool = False
) -> List[str]:
    """One line per cell that differs from the golden; with ``complete``
    a golden cell that was not computed is a mismatch too."""
    golden = load_golden()
    lines = [
        f"{key}: expected {golden.get(key)}, got {cell}"
        for key, cell in sorted(cells.items())
        if golden.get(key) != cell
    ]
    if complete:
        lines += [f"{key}: not computed" for key in sorted(set(golden) - set(cells))]
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite the golden instead of checking it")
    parser.add_argument("--bench", action="append",
                        help="restrict to this bench (repeatable)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="run every cell through one shared artifact "
                             "store in DIR (cache on) instead of cache off")
    args = parser.parse_args(argv)

    if args.record and args.cache_dir is not None:
        parser.error("--record computes the golden with the cache off")
    cells = compute_cells(args.bench, cache_dir=args.cache_dir)
    if args.record:
        GOLDEN.write_text(
            json.dumps({"latencies": list(LATENCIES), "cells": cells},
                       indent=1, sort_keys=True) + "\n"
        )
        print(f"recorded {len(cells)} cell(s) to {GOLDEN.name}")
        return 0
    bad = mismatches(cells, complete=args.bench is None)
    for line in bad:
        print(f"MISMATCH {line}")
    mode = "cache off" if args.cache_dir is None else "shared cache"
    print(f"rhop identity ({mode}): {len(cells) - len(bad)}/{len(cells)} "
          f"cell(s) match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
