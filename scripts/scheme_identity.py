"""Scheme identity check: every bench x scheme x fault-spec cell must
reproduce the recorded outcome and run report.

The golden (``tests/goldens/scheme_identity.json``) pins what each
Table-1 scheme produces through the validating degradation ladder, with
and without injected faults, so a refactor of the scheme runners can
prove it kept every fault hook in its place and order.  Each cell runs
``Pipeline(RunConfig(scheme=..., cache="off", fault_spec=...,
fallback=True, retries=1, validate=True))`` and stores either

* ``exhausted`` -- the :class:`~repro.resilience.LadderExhausted`
  message, when every rung failed; or
* ``scheme`` (the rung that answered), ``cycles``, ``dynamic_moves``,
  the sorted ``object_home``, the sorted ``timings`` keys, ``rhop_runs``,
  ``assignment_sha256`` (as in ``scripts/rhop_identity.py``) and
  ``report_sha256`` -- SHA-256 of ``RunReport.to_json(deterministic=True)``,
  which pins every attempt, fault firing, fallback and phase name.  The
  op uids an ``unlock`` firing names are rebased to the smallest of
  them first: clones draw uids from a process-global counter, so their
  absolute values depend on whatever the process ran before the cell.

Run from the repository root with ``PYTHONPATH=src``:

    python scripts/scheme_identity.py                 # check every cell
    python scripts/scheme_identity.py --record        # rewrite the golden
    python scripts/scheme_identity.py --bench fir     # check a subset
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from rhop_identity import assignment_sha256  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "goldens" / "scheme_identity.json"
BENCHES = ("rawcaudio", "fir", "huffman")
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
    return hashlib.sha256(text.encode()).hexdigest()


def run_cell(prepared, scheme: str, spec: Optional[str]) -> Dict[str, object]:
    """One cell: the ladder's answer for ``scheme`` under ``spec``."""
    from repro.exec.runconfig import RunConfig
    from repro.pipeline import Pipeline
    from repro.resilience import LadderExhausted, RunReport

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


def compute_cells(
    benches: Iterable[str] = BENCHES,
) -> Dict[str, Dict[str, object]]:
    """``"bench/scheme/spec"`` -> cell; one fault-free prepare per bench."""
    from repro.bench import get
    from repro.exec.runconfig import SCHEMES, RunConfig
    from repro.pipeline import Pipeline

    cells: Dict[str, Dict[str, object]] = {}
    for name in benches:
        bench = get(name)
        prepared = Pipeline(RunConfig(cache="off")).prepare(
            bench.source, bench.name
        )
        for scheme in SCHEMES:
            for spec in FAULT_SPECS:
                key = f"{bench.name}/{scheme}/{spec or 'none'}"
                cells[key] = run_cell(prepared, scheme, spec)
    return cells


def load_golden() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN.read_text())["cells"]


def mismatches(
    cells: Dict[str, Dict[str, object]], complete: bool = False
) -> List[str]:
    """One line per cell that differs from the golden; with ``complete``
    a golden cell that was not computed is a mismatch too."""
    golden = load_golden()
    # Round-trip through JSON so tuples compare equal to recorded lists.
    cells = json.loads(json.dumps(cells))
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
    args = parser.parse_args(argv)

    cells = compute_cells(args.bench or BENCHES)
    if args.record:
        GOLDEN.write_text(
            json.dumps({"fault_specs": list(FAULT_SPECS), "cells": cells},
                       indent=1, sort_keys=True) + "\n"
        )
        print(f"recorded {len(cells)} cell(s) to {GOLDEN.name}")
        return 0
    bad = mismatches(cells, complete=args.bench is None)
    for line in bad:
        print(f"MISMATCH {line}")
    print(f"scheme identity: {len(cells) - len(bad)}/{len(cells)} cell(s) match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
