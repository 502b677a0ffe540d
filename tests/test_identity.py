"""Every identity suite reproduces its recorded golden, and the shared
harness in ``scripts/identity.py`` checks, diffs and records as it says.

``scripts/check.sh`` runs each suite whole; the tier-1 subsets here are
lint, profile, tiers, rhop and gdp on rawcaudio and fir, scheme on
rawcaudio, and cli on its fast cells -- ``config show``, a clean and a
profiler-faulted ``partition``, a degraded and an exhausted ``compare``,
the bench listing, lint with ``--only bogus`` and ``--run-report``,
``submit`` without a program and a missing file, and service on the
coalescing, backpressure and old-journal recovery scenarios.  The CLI's
fault-class cells must show a survived degradation in the golden itself.
A fake suite over a temporary golden checks the harness itself without
compiling anything.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "identity", ROOT / "scripts" / "identity.py"
)
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)

_GDP_CELLS = len(identity.GDP_CLUSTERS) * len(identity.GDP_RATIOS)


@pytest.mark.parametrize("name, only, count", [
    pytest.param("lint", ["rawcaudio"], 1, id="lint-rawcaudio"),
    pytest.param("lint", ["fir"], 1, id="lint-fir"),
    pytest.param("profile", ["rawcaudio"], 1, id="profile-rawcaudio"),
    pytest.param("profile", ["fir"], 1, id="profile-fir"),
    pytest.param("rhop", ["rawcaudio"], 4 * len(identity.RHOP_LATENCIES),
                 id="rhop-rawcaudio"),
    pytest.param("rhop", ["fir"], 4 * len(identity.RHOP_LATENCIES),
                 id="rhop-fir"),
    pytest.param("tiers", ["rawcaudio"], 3, id="tiers-rawcaudio"),
    pytest.param("tiers", ["fir"], 3, id="tiers-fir"),
    pytest.param("gdp", ["rawcaudio"], _GDP_CELLS, id="gdp-rawcaudio"),
    pytest.param("gdp", ["fir"], _GDP_CELLS, id="gdp-fir"),
    pytest.param("scheme", ["rawcaudio"], 4 * len(identity.FAULT_SPECS),
                 id="scheme-rawcaudio"),
    pytest.param("cli", identity.FAST_CELLS, len(identity.FAST_CELLS),
                 id="cli-fast"),
    pytest.param("service", ["coalesce", "backpressure", "recover-parent"], 3,
                 id="service-subset"),
])
def test_subset_matches_golden(name, only, count):
    suite = identity.SUITES[name]
    failures = []
    cells = identity.compute(suite, only, failures)
    # The diff compares every field either side has (each lint/profile
    # mode), so the count is all the shape a cell needs beyond it.
    assert len(cells) == count
    assert identity.mismatches(identity.load_golden(suite), cells, False) == []
    assert failures == []


def test_cli_fault_cells_degrade_and_survive():
    """Each fault class, injected into ``partition --fallback``, fires and
    is survived: the run ends ok and exits 1 exactly when it fell back.
    Persistent raises (GDP's and the profiler's) and corrupted homes fall
    back; corrupted homes through an ``invalid`` attempt, as the validity
    check catches them, not a crash."""
    cells = identity.load_golden(identity.SUITES["cli"])
    for label in identity.CLI_FAULT_SPECS:
        report = cells[f"partition-fault-{label}"]["report"]
        summary = report["summary"]
        assert summary["faults"] >= 1, label
        assert report["final"]["status"] == "ok", label
        exit_code = cells[f"partition-fault-{label}"]["exit"]
        assert exit_code == (1 if summary["fallbacks"] >= 1 else 0), label
        if label in ("raise-gdp", "corrupt-homes", "raise-profiler"):
            assert summary["fallbacks"] >= 1, label
    invalid = [
        event for event in cells["partition-fault-corrupt-homes"]["report"]["events"]
        if event["kind"] == "attempt" and event["status"] == "invalid"
    ]
    assert invalid


def test_service_uptime_is_spelled_as_scrub_writes_it():
    """A subset ``--record`` of the service suite writes each cell's
    stats through ``scrub``: the golden holds the same spelling of the
    zeroed uptime, so recording one cell churns no other field."""
    from repro.resilience.report import scrub

    zero = json.dumps(scrub({"uptime_seconds": 12.5})["uptime_seconds"])
    cells = identity.load_golden(identity.SUITES["service"])
    assert cells
    for name, cell in cells.items():
        assert json.dumps(cell["stats"]["uptime_seconds"]) == zero, name


def test_every_golden_has_one_suite_and_every_suite_a_stage():
    goldens = sorted(
        path.name for path in (ROOT / "tests" / "goldens").glob("*_identity.json")
    )
    recorded = sorted(
        suite.golden.name for suite in identity.SUITES.values()
        if suite.recordable
    )
    assert recorded == goldens
    assert {suite.golden.name for suite in identity.SUITES.values()} <= set(goldens)
    staged = {
        name
        for names in re.findall(r"python scripts/identity\.py((?: [\w-]+)+)",
                                (ROOT / "scripts" / "check.sh").read_text())
        for name in names.split()
    }
    assert set(identity.SUITES) <= staged


# -- the harness, on a fake suite ------------------------------------------------


def _golden_text(cells):
    return json.dumps({"units": ["a", "b", "c"], "cells": cells},
                      indent=1, sort_keys=True) + "\n"


@pytest.fixture
def fake(tmp_path, monkeypatch):
    """Units ``a``/``b``/``c`` whose cells are read from a dict the test
    may change; the golden also holds ``d``, which no unit computes."""
    values = {"a": {"x": 1, "y": [1, 2]}, "b": {"x": 2, "y": []},
              "c": {"x": 3, "y": None}}
    golden = tmp_path / "fake_identity.json"
    golden.write_text(_golden_text({**values, "d": {"x": 4, "y": "gone"}}))
    monkeypatch.setitem(identity.SUITES, "fake", identity.Suite(
        "fake", golden, lambda: sorted(values),
        lambda units, failures: {unit: values[unit] for unit in units},
        {"units": ["a", "b", "c"]},
    ))
    return values, golden


def test_fake_field_mismatch_names_cell_and_field(fake, capsys):
    values, _golden = fake
    values["b"]["x"] = 20
    assert identity.main(["fake", "--only", "b"]) == 1
    out = capsys.readouterr().out
    assert re.findall(r"MISMATCH (\S+):", out) == ["b.x"]
    assert "fake identity: 0/1 cell(s) match" in out


def test_fake_uncomputed_golden_cell_fails_only_a_full_run(fake, capsys):
    assert identity.main(["fake", "--only", "a", "--only", "b",
                          "--only", "c"]) == 0
    assert capsys.readouterr().out == "fake identity: 3/3 cell(s) match\n"
    assert identity.main(["fake"]) == 1
    out = capsys.readouterr().out
    assert re.findall(r"MISMATCH (.*)", out) == ["d: not computed"]


def test_fake_subset_record_keeps_every_other_cell(fake):
    values, golden = fake
    before = json.loads(golden.read_text())["cells"]
    values["b"]["x"] = 20
    assert identity.main(["fake", "--record", "--only", "b"]) == 0
    assert golden.read_text() == _golden_text({**before, "b": values["b"]})
    # Only a full record drops a cell nothing computes.
    assert identity.main(["fake", "--record"]) == 0
    assert golden.read_text() == _golden_text(values)


def test_fake_gate_failure_fails_whatever_the_golden(fake, capsys, monkeypatch):
    values, _golden = fake

    def gated(units, failures):
        failures.append("unit b: 1 error(s)")
        return {unit: values[unit] for unit in units}

    monkeypatch.setitem(identity.SUITES, "fake",
                        identity.SUITES["fake"]._replace(cells=gated))
    assert identity.main(["fake", "--only", "b"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == ["FAIL unit b: 1 error(s)",
                                "fake identity: 1/1 cell(s) match"]


def test_shared_rhop_refuses_to_record():
    golden = identity.SUITES["rhop-shared"].golden
    before = golden.read_bytes()
    with pytest.raises(SystemExit) as exc:
        identity.main(["rhop-shared", "--record", "--only", "fir"])
    assert exc.value.code == 2
    assert golden.read_bytes() == before
