"""Every Table-1 scheme reproduces its recorded outcome and run report,
with and without injected faults.

A subset of ``scripts/scheme_identity.py`` (run on all its benches by the
``check.sh faults`` stage): every scheme x fault spec on rawcaudio must
match the golden's answering scheme, cycles, moves, homes, phase names,
assignment hash and deterministic run-report hash.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "scheme_identity.py"


def load_identity():
    spec = importlib.util.spec_from_file_location("scheme_identity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rawcaudio_cells_match_golden():
    identity = load_identity()
    cells = identity.compute_cells(["rawcaudio"])
    assert len(cells) == 4 * len(identity.FAULT_SPECS)
    assert identity.mismatches(cells) == []
