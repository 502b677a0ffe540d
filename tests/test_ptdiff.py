"""Tests for the refinement-soundness differ, precision tables, SARIF
output, and the precision-observability CLI surface."""

import json
import os
from collections import Counter

import pytest

import repro.lint.ptdiff as ptdiff
from repro.analysis import TIERS
from repro.bench import get as get_benchmark
from repro.cli import main
from repro.lang import compile_source
from repro.lint import (
    DETERMINISTIC_COLUMNS,
    PASS_REGISTRY,
    Severity,
    diff_tiers,
    lint_module,
    lint_report,
    precision_table,
    tier_solutions,
)
from repro.lint.diagnostics import Diagnostic, DiagnosticReport
from repro.profiler import Interpreter

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

POINTER_TABLE = """
int a[4];
int b[4];
int *tab[2];
int main() {
  tab[0] = a;
  tab[1] = b;
  int *p = tab[0];
  int *q = tab[1];
  return p[0] + q[0];
}
"""


@pytest.fixture()
def ptable_file(tmp_path):
    path = tmp_path / "ptable.mc"
    path.write_text(POINTER_TABLE)
    return str(path)


class _Inflated:
    """Wrap a real solution, adding a phantom target to every op set —
    simulates a sharper solver that invents objects (a refinement bug)."""

    def __init__(self, inner):
        self._inner = inner

    def objects_for_op(self, func, op):
        return self._inner.objects_for_op(func, op) | {"g:phantom"}

    def stats(self):
        return self._inner.stats()


class _FakeProfile:
    def __init__(self, op_object_counts):
        self.op_object_counts = op_object_counts


class TestDiffTiers:
    def test_clean_program_has_no_diagnostics(self):
        module = compile_source(POINTER_TABLE, "t")
        report = diff_tiers(module)
        assert not report.has_errors
        assert len(report.diagnostics) == 0

    def test_stats_ride_on_the_report(self):
        module = compile_source(POINTER_TABLE, "t")
        report = diff_tiers(module)
        assert set(report.stats) == set(TIERS)
        assert report.stats["cs"]["avg_set_size"] < (
            report.stats["andersen"]["avg_set_size"]
        )

    def test_subset_violation_detected(self, monkeypatch):
        module = compile_source(POINTER_TABLE, "t")
        sols = tier_solutions(module)
        sols["cs"] = _Inflated(sols["cs"])
        monkeypatch.setattr(ptdiff, "tier_solutions", lambda module: sols)
        report = diff_tiers(module)
        assert report.has_errors
        rules = {d.rule for d in report}
        assert rules == {"ptdiff-subset"}
        assert any("g:phantom" in d.message for d in report)

    def test_oracle_violation_detected(self):
        module = compile_source(POINTER_TABLE, "t")
        op = next(
            op for op in module.function("main").operations()
            if op.is_memory_access()
        )
        profile = _FakeProfile({op.uid: Counter({"g:phantom": 3})})
        report = lint_report(module, only=["ptdiff"], profile=profile)
        assert report.has_errors
        assert {d.rule for d in report} == {"ptdiff-oracle"}
        # every tier misses the phantom, so one diagnostic per tier
        assert len(report.diagnostics) == len(TIERS)

    def test_real_profile_is_contained(self):
        module = compile_source(POINTER_TABLE, "t")
        interp = Interpreter(module)
        interp.run()
        report = lint_report(module, only=["ptdiff"], profile=interp.profile)
        assert not report.has_errors

    def test_differ_pass_registered(self):
        assert "ptdiff" in PASS_REGISTRY
        module = compile_source(POINTER_TABLE, "t")
        report = lint_module(module, only=["ptdiff"])
        assert not report.has_errors


class TestPrecisionTable:
    def test_matches_golden(self):
        for name in ("huffman", "cjpeg"):
            module = compile_source(get_benchmark(name).source, name)
            with open(
                os.path.join(GOLDEN_DIR, f"precision_{name}.txt")
            ) as fh:
                assert precision_table(module) + "\n" == fh.read()

    def test_only_deterministic_columns(self):
        module = compile_source(POINTER_TABLE, "t")
        table = precision_table(module)
        assert "solver_iterations" not in table
        assert "solve_seconds" not in table
        for col in DETERMINISTIC_COLUMNS:
            assert col in table


class TestSarif:
    def test_sarif_structure(self):
        report = DiagnosticReport([
            Diagnostic(Severity.ERROR, "ptdiff-subset", "boom",
                       func="f", block="entry", op="load", phase="pointsto"),
            Diagnostic(Severity.WARNING, "some-rule", "careful", func="g"),
            Diagnostic(Severity.INFO, "fyi", "note this"),
        ])
        log = json.loads(report.to_sarif())
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        levels = [r["level"] for r in run["results"]]
        assert sorted(levels) == ["error", "note", "warning"]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rule_ids == {"ptdiff-subset", "some-rule", "fyi"}
        err = next(r for r in run["results"] if r["level"] == "error")
        assert err["properties"]["phase"] == "pointsto"
        loc = err["locations"][0]["logicalLocations"][0]
        assert loc["fullyQualifiedName"] == "f/entry"

    def test_empty_report_is_valid_sarif(self):
        log = json.loads(DiagnosticReport([]).to_sarif())
        assert log["runs"][0]["results"] == []


class TestLintCli:
    def test_sarif_format_matches_golden(self, ptable_file, capsys):
        assert main(["lint", ptable_file, "--format", "sarif"]) == 0
        out = capsys.readouterr().out
        with open(
            os.path.join(GOLDEN_DIR, "lint_pointer_table.sarif")
        ) as fh:
            assert out == fh.read()

    def test_json_format_carries_tier_stats(self, ptable_file, capsys):
        assert main(["lint", ptable_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["stats"]) == set(TIERS)
        for tier in TIERS:
            assert set(payload["stats"][tier]) == set(DETERMINISTIC_COLUMNS)

    def test_dynamic_oracle_flag(self, ptable_file, capsys):
        assert main(["lint", ptable_file, "--dynamic-oracle"]) == 0
        out = capsys.readouterr().out
        assert "stats[andersen]" in out

    def test_text_format_prints_tier_deltas(self, ptable_file, capsys):
        assert main(["lint", ptable_file]) == 0
        out = capsys.readouterr().out
        assert "pointsto-tier-delta" in out


class TestTierDeltaLint:
    def test_delta_reported_for_pointer_table(self):
        module = compile_source(POINTER_TABLE, "t")
        report = lint_module(module, only=["pointsto"])
        deltas = [d for d in report if d.rule == "pointsto-tier-delta"]
        assert len(deltas) == 2  # field and cs both shrink here
        assert all(d.severity is Severity.INFO for d in deltas)

    def test_no_delta_for_globals_only_program(self):
        module = compile_source(
            "int g[4]; int main() { g[0] = 1; return g[0]; }", "t"
        )
        report = lint_module(module, only=["pointsto"])
        assert not [d for d in report if d.rule == "pointsto-tier-delta"]
