"""The interpreter and the static prepare reproduce their recorded profiles.

A subset of ``scripts/profile_identity.py`` (run over the whole suite by
the ``check.sh benches`` stage): the plain, prepared and static profiles
of two benches must hash to the golden's SHA-256 values, with the same
return value and step count.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "profile_identity.py"


def load_identity():
    spec = importlib.util.spec_from_file_location("profile_identity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("bench", ["rawcaudio", "fir"])
def test_profiles_match_golden(bench):
    identity = load_identity()
    cells = identity.compute_cells([bench])
    assert set(cells[bench]) == set(identity.MODES)
    assert identity.mismatches(cells) == []
