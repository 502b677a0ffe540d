"""CLI identity check: every argv cell must reproduce the recorded exit
code, output and run report.

The golden (``tests/goldens/cli_identity.json``) pins what the command
line front end prints for a matrix of invocations -- ``config show``,
``partition`` across schemes, tiers, profiles, machines and fault specs,
``compare``, ``bench``, ``lint`` in every format, ``compile``, ``run``,
``submit`` without a program, and a missing input file -- so a refactor
of the argument handling can prove it changed nothing a user sees.

Each cell runs ``python -m repro <argv>`` in a fresh process from the
repository root and stores

* ``exit`` -- the process exit code;
* ``stdout`` / ``stderr`` -- with the points-to solver's
  ``(N iters, T ms)``, the sweep table's seconds column and footer
  timings, and the run-report path replaced by placeholders;
* ``report`` -- the ``--run-report`` file, when the cell writes one,
  scrubbed the way ``RunReport.to_dict(deterministic=True)`` scrubs:
  cache events dropped, wall clocks and phase timings zeroed, solver
  seconds and iteration counts zeroed.

Run from the repository root with ``PYTHONPATH=src``:

    python scripts/cli_identity.py                    # check every cell
    python scripts/cli_identity.py --record           # rewrite the golden
    python scripts/cli_identity.py --cell compare     # check a subset
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "goldens" / "cli_identity.json"
PROGRAM = "examples/quickstart.py"
#: Stands for the run-report path in argv and in the scrubbed output.
REPORT = "{report}"

#: The fault-class specs of ``check.sh faults``, one cell each.
FAULT_SPECS = {
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
        for label, spec in FAULT_SPECS.items()
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

_TIMING_KEYS = ("seconds", "wall_seconds", "cell_seconds", "speedup")
_SOLVER_KEYS = ("solve_seconds", "solver_iterations")


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


def scrub_report(data: Any) -> Any:
    """A run-report JSON value with everything wall-clock dependent (or
    dependent on what earlier runs left in the cache) zeroed or dropped."""
    if isinstance(data, list):
        return [
            scrub_report(item) for item in data
            if not (isinstance(item, dict) and item.get("kind") == "cache")
        ]
    if not isinstance(data, dict):
        return data
    scrubbed = {}
    for key, value in data.items():
        if key in _TIMING_KEYS or key in _SOLVER_KEYS:
            value = 0
        elif key == "phases" and isinstance(value, dict):
            value = {name: 0 for name in value}
        else:
            value = scrub_report(value)
        scrubbed[key] = value
    return scrubbed


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
                report = scrub_report(json.load(handle))
    return {
        "exit": proc.returncode,
        "stdout": scrub_text(proc.stdout, report_path),
        "stderr": scrub_text(proc.stderr, report_path),
        "report": report,
    }


def compute_cells(names: Iterable[str] = CELLS) -> Dict[str, Dict[str, Any]]:
    return {name: run_cell(CELLS[name]) for name in names}


def load_golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(GOLDEN.read_text())["cells"]


def mismatches(
    cells: Dict[str, Dict[str, Any]], complete: bool = False
) -> List[str]:
    """One line per differing field of each cell; with ``complete`` a
    golden cell that was not computed is a mismatch too."""
    golden = load_golden()
    lines = []
    for name, cell in sorted(cells.items()):
        expected = golden.get(name)
        if expected is None:
            lines.append(f"{name}: not in the golden")
            continue
        for field in ("exit", "stdout", "stderr", "report"):
            if expected[field] != cell[field]:
                lines.append(
                    f"{name}.{field}: expected {expected[field]!r}, "
                    f"got {cell[field]!r}"
                )
    if complete:
        lines += [f"{name}: not computed" for name in sorted(set(golden) - set(cells))]
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite the golden instead of checking it")
    parser.add_argument("--cell", action="append", choices=sorted(CELLS),
                        help="restrict to this cell (repeatable)")
    args = parser.parse_args(argv)

    cells = compute_cells(args.cell or CELLS)
    if args.record:
        recorded = {
            name: {"argv": CELLS[name], **cell} for name, cell in cells.items()
        }
        GOLDEN.write_text(
            json.dumps({"cells": recorded}, indent=1, sort_keys=True) + "\n"
        )
        print(f"recorded {len(cells)} cell(s) to {GOLDEN.name}")
        return 0
    bad = mismatches(cells, complete=args.cell is None)
    for line in bad:
        print(f"MISMATCH {line}")
    failed = {line.split(".")[0].split(":")[0] for line in bad}
    print(f"cli identity: {len(cells) - len(failed & set(cells))}/"
          f"{len(cells)} cell(s) match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
