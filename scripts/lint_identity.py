"""Lint identity check: every bench must reproduce the recorded lint report
in each of three modes.

The golden (``tests/goldens/lint_identity.json``) pins the SHA-256 of
``lint_module(...).to_json()`` per bench, so a change to how the lint
passes obtain their analyses can prove the findings did not move.  The
three modes are the three ways the suite is linted:

* ``plain`` -- a ``compile_source`` module with the per-tier
  ``DETERMINISTIC_COLUMNS`` points-to stats ``repro lint`` adds;
* ``oracle`` -- the same module linted with an interpreter profile of
  itself, as ``repro lint --dynamic-oracle`` does;
* ``prepared`` -- the dynamically prepared module, as the benchmark's
  prepare workload lints it.

Run from the repository root with ``PYTHONPATH=src``:

    python scripts/lint_identity.py              # check every bench
    python scripts/lint_identity.py --record     # rewrite the golden
    python scripts/lint_identity.py --bench fir  # check a subset
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "goldens" / "lint_identity.json"
MODES = ("plain", "oracle", "prepared")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_report_json(module, machine, profile=None) -> str:
    """``repro lint [--dynamic-oracle] --json`` on ``module``."""
    from repro.analysis.pointsto import TIERS
    from repro.lint import DETERMINISTIC_COLUMNS, lint_with_stats

    report, ctx = lint_with_stats(module, machine=machine, profile=profile)
    for tier in TIERS:
        stats = ctx.pointsto(tier).stats().to_dict()
        report.stats[tier] = {c: stats[c] for c in DETERMINISTIC_COLUMNS}
    return report.to_json()


def compute_cells(
    benches: Optional[Iterable[str]] = None,
) -> Dict[str, Dict[str, str]]:
    """bench -> mode -> SHA-256 of the lint report JSON."""
    from repro.bench import all_benchmarks, get
    from repro.exec.runconfig import RunConfig
    from repro.lang import compile_source
    from repro.lint import lint_with_stats
    from repro.pipeline import PreparedProgram
    from repro.profiler import Interpreter

    chosen = (
        [get(name) for name in benches] if benches is not None
        else all_benchmarks()
    )
    machine = RunConfig().build_machine()
    dynamic = RunConfig(profile="dynamic", cache="off")
    cells: Dict[str, Dict[str, str]] = {}
    for bench in chosen:
        module = compile_source(bench.source, bench.name)
        plain = _cli_report_json(module, machine)
        interp = Interpreter(module)
        interp.run()
        oracle = _cli_report_json(module, machine, profile=interp.profile)
        prepared = PreparedProgram.from_source(
            bench.source, bench.name, config=dynamic
        )
        report, _ctx = lint_with_stats(prepared.module)
        cells[bench.name] = {
            "plain": _sha256(plain),
            "oracle": _sha256(oracle),
            "prepared": _sha256(report.to_json()),
        }
    return cells


def load_golden() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN.read_text())["cells"]


def mismatches(
    cells: Dict[str, Dict[str, str]], complete: bool = False
) -> List[str]:
    """One line per bench x mode that differs from the golden; with
    ``complete`` a golden bench that was not computed is a mismatch too."""
    golden = load_golden()
    lines = [
        f"{bench}/{mode}: expected {golden.get(bench, {}).get(mode)}, "
        f"got {digest}"
        for bench, modes in sorted(cells.items())
        for mode, digest in modes.items()
        if golden.get(bench, {}).get(mode) != digest
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
    print(f"lint identity: {total - len(bad)}/{total} report(s) match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
