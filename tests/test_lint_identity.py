"""The lint passes reproduce their recorded reports.

A subset of ``scripts/lint_identity.py`` (run over the whole suite by the
``check.sh benches`` stage): the plain, dynamic-oracle and prepared lint
reports of two benches must hash to the golden's SHA-256 values.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "lint_identity.py"


def load_identity():
    spec = importlib.util.spec_from_file_location("lint_identity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("bench", ["rawcaudio", "fir"])
def test_reports_match_golden(bench):
    identity = load_identity()
    cells = identity.compute_cells([bench])
    assert set(cells[bench]) == set(identity.MODES)
    assert identity.mismatches(cells) == []
