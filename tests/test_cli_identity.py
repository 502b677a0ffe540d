"""The command line reproduces its recorded exit codes, output and run
reports.

A subset of ``scripts/cli_identity.py`` (whose full matrix the
``check.sh examples`` stage runs): the fast cells -- ``config show``,
a clean and a profiler-faulted ``partition``, a degraded and an
exhausted ``compare``, the bench listing, lint with ``--only bogus`` and
``--run-report``, ``submit`` without a program and a missing file --
must match the golden.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cli_identity.py"


def load_identity():
    spec = importlib.util.spec_from_file_location("cli_identity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fast_cells_match_golden():
    identity = load_identity()
    cells = identity.compute_cells(identity.FAST_CELLS)
    assert identity.mismatches(cells) == []
