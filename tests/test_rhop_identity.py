"""The computation partitioner reproduces its recorded decisions.

A subset of ``scripts/rhop_identity.py`` (the ``check.sh rhop`` stage):
every scheme at move latencies 1, 5 and 10 on two benches must match the
golden's status, cycles, dynamic moves and op->cluster assignment hash.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "rhop_identity.py"


def load_identity():
    spec = importlib.util.spec_from_file_location("rhop_identity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("bench", ["rawcaudio", "fir"])
def test_cells_match_golden(bench):
    identity = load_identity()
    cells = identity.compute_cells([bench])
    assert len(cells) == 4 * len(identity.LATENCIES)
    assert identity.mismatches(cells) == []
