"""Unit tests for the PR 9 region-analysis stack: interprocedural
MOD/REF summaries, the region-granular partition checker, and the
data-movement roofline."""

import pytest

from repro.analysis import Analyses, annotate_memory_ops
from repro.analysis.modref import effect_contains, format_effect, merge_effect
from repro.evalmodel import RooflineModel, build_roofline, roofline_for
from repro.lang import compile_source
from repro.lint import (
    check_region_outcome,
    lint_module,
    region_summary,
)
from repro.lint.diagnostics import RULE_METADATA, Severity
from repro.lint.regioncheck import (
    check_region_interference,
    check_region_locks,
    check_region_moves,
)
from repro.machine import two_cluster_machine
from repro.pipeline import PreparedProgram, run_scheme

POINTER_TABLE = """
int a[4];
int b[4];
int *tab[2];
int main() {
  tab[0] = a;
  tab[1] = b;
  int *p = tab[0];
  int *q = tab[1];
  int s = 0;
  for (int i = 0; i < 4; i = i + 1) { s = s + p[i] + q[i]; }
  return s;
}
"""

CALLS = """
int a[8];
int b[8];
int helper(int i) {
  a[i] = i;
  return b[i];
}
int main() {
  int s = 0;
  for (int i = 0; i < 8; i = i + 1) { s = s + helper(i); }
  print_int(s);
  return s;
}
"""

RECURSIVE = """
int a[8];
int fib(int n) {
  a[n] = n;
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int main() { return fib(6); }
"""


def annotated(src):
    module = compile_source(src, "t")
    annotate_memory_ops(module)
    return module


# -- effect lattice -----------------------------------------------------------


class TestEffectLattice:
    def test_merge_with_top_is_top(self):
        assert merge_effect(None, [(0, 4)]) is None
        assert merge_effect([(0, 4)], None) is None

    def test_merge_keeps_disjoint_components(self):
        assert merge_effect([(0, 4)], [(4, 8)]) == [(0, 4), (4, 8)]
        assert merge_effect([(0, 6)], [(4, 8)]) == [(0, 8)]

    def test_containment(self):
        assert effect_contains(None, [(0, 4)])
        assert effect_contains([(0, 8)], [(2, 4)])
        assert not effect_contains([(0, 4)], None)
        assert not effect_contains([(0, 4)], [(2, 6)])

    def test_format(self):
        assert format_effect(None) == "whole"
        assert format_effect([(0, 4), (8, 12)]) == "[0,4)+[8,12)"


# -- MOD/REF summaries --------------------------------------------------------


class TestModRef:
    def test_store_load_classification(self):
        modref = Analyses(annotated(CALLS)).modref(None)
        helper = modref.summaries["helper"]
        assert "g:a" in helper.mod
        assert "g:b" in helper.ref
        assert "g:a" not in helper.ref

    def test_transitive_inherits_callee_effects(self):
        modref = Analyses(annotated(CALLS)).modref(None)
        main = modref.summaries["main"]
        assert "g:a" in main.mod
        assert "g:b" in main.ref
        # ...but main's *local* summary touches neither array directly.
        assert "g:a" not in modref.local["main"].mod

    def test_known_externals_do_not_havoc(self):
        modref = Analyses(annotated(CALLS)).modref(None)
        assert not modref.local["main"].havoc
        assert not modref.summaries["main"].havoc

    def test_recursion_widens_to_top(self):
        modref = Analyses(annotated(RECURSIVE)).modref(None)
        assert "fib" in modref.widened
        summary = modref.summaries["fib"]
        assert summary.mod_of("g:a") is None  # widened to whole-object

    def test_pointer_table_is_splittable(self):
        modref = Analyses(annotated(POINTER_TABLE)).modref(None)
        splittable = modref.splittable_objects()
        assert "g:tab" in splittable
        parts = splittable["g:tab"]
        assert len(parts) == 2
        for (_, prev_hi), (next_lo, _) in zip(parts, parts[1:]):
            assert prev_hi <= next_lo

    def test_region_summary_shape(self):
        stats = region_summary(Analyses(annotated(POINTER_TABLE)).modref(None))
        assert stats["splittable_objects"] >= 1
        assert stats["splittable_intervals"] >= 2
        assert stats["widened_functions"] == 0
        assert stats["havoc_functions"] == 0
        assert stats["objects_tracked"] >= 3


# -- lint integration ---------------------------------------------------------


class TestRegionLintPass:
    def test_rules_registered_with_metadata(self):
        for rule in (
            "region-refinement", "region-cross-cluster",
            "region-interference", "region-unbridged", "region-splittable",
        ):
            assert rule in RULE_METADATA

    def test_splittable_advisory_via_lint_module(self):
        report = lint_module(annotated(POINTER_TABLE))
        advisories = [
            d for d in report.diagnostics if d.rule == "region-splittable"
        ]
        assert advisories
        assert all(d.severity is Severity.INFO for d in advisories)
        assert any("g:tab" in d.message for d in advisories)

    def test_no_refinement_errors_on_clean_module(self):
        report = lint_module(annotated(POINTER_TABLE), only=["regioncheck"])
        assert not [
            d for d in report.errors if d.rule == "region-refinement"
        ]


# -- partition-dependent checks ----------------------------------------------


@pytest.fixture(scope="module")
def machine():
    return two_cluster_machine(move_latency=5)


@pytest.fixture(scope="module")
def table_prepared():
    return PreparedProgram.from_source(POINTER_TABLE, "t")


class TestOutcomeChecks:
    def test_valid_outcomes_are_clean(self, table_prepared, machine):
        for scheme in ("gdp", "unified"):
            outcome = run_scheme(table_prepared, machine, scheme)
            report = check_region_outcome(table_prepared, outcome)
            assert not report.has_errors, [
                d.render() for d in report.errors
            ]
            assert "regioncheck" in report.stats

    def test_misplaced_locked_op_is_cross_cluster(
        self, table_prepared, machine
    ):
        from repro.partition.locks import memory_locks

        outcome = run_scheme(table_prepared, machine, "gdp")
        regions = Analyses(outcome.module).access_regions(None)
        locks = memory_locks(
            outcome.module,
            outcome.object_home,
            table_prepared.object_access_counts(),
        )
        uid, home = sorted(locks.items())[0]
        corrupted = dict(outcome.assignment)
        corrupted[uid] = 1 - home
        report = check_region_locks(
            outcome.module, corrupted, outcome.object_home, regions,
            table_prepared.object_access_counts(),
        )
        assert report.has_errors
        assert all(d.rule == "region-cross-cluster" for d in report.errors)

    def test_overlapping_cross_cluster_write_interferes(self):
        module = annotated("""
        int a[4];
        int main() { a[1] = 5; return a[1]; }
        """)
        regions = Analyses(module).access_regions(None)
        from repro.ir import Opcode

        assignment = {}
        for op in module.function("main").operations():
            if op.opcode is Opcode.STORE:
                assignment[op.uid] = 0
            elif op.opcode is Opcode.LOAD:
                assignment[op.uid] = 1
        report = check_region_interference(
            module, assignment, {"g:a": 0}, regions
        )
        assert report.has_errors
        assert all(d.rule == "region-interference" for d in report.errors)
        assert any("[4,8)" in d.message for d in report.errors)

    def test_disjoint_regions_do_not_interfere(self):
        module = annotated("""
        int a[4];
        int main() { a[0] = 5; return a[3]; }
        """)
        regions = Analyses(module).access_regions(None)
        from repro.ir import Opcode

        assignment = {}
        for op in module.function("main").operations():
            if op.opcode is Opcode.STORE:
                assignment[op.uid] = 0
            elif op.opcode is Opcode.LOAD:
                assignment[op.uid] = 1
        report = check_region_interference(
            module, assignment, {"g:a": 0}, regions
        )
        assert not report.has_errors

    def test_unbridged_cut_edge_is_reported(self):
        module = annotated("""
        int a[4];
        int main() { int x = a[0]; return x + 1; }
        """)
        regions = Analyses(module).access_regions(None)
        from repro.ir import Opcode

        assignment = {}
        for op in module.function("main").operations():
            assignment[op.uid] = (
                0 if op.opcode is Opcode.LOAD else 1
            )
        report = check_region_moves(module, assignment, regions)
        assert report.has_errors
        assert all(d.rule == "region-unbridged" for d in report.errors)


# -- roofline -----------------------------------------------------------------


class TestRoofline:
    def test_model_arithmetic(self):
        model = RooflineModel(spans={"a": 8}, traffic={"a": 32})
        assert model.lower_bound == 8
        assert model.memory_traffic == 32
        assert model.footprint == 8
        assert model.ratio(0) == pytest.approx(4.0)
        # 2 word-moves add 8 bytes of traffic: (32 + 8) / 8.
        assert model.ratio(2) == pytest.approx(5.0)

    def test_span_clamps_lower_bound(self):
        # Traffic below the span: the object's own traffic is the bound.
        model = RooflineModel(spans={"a": 100}, traffic={"a": 12})
        assert model.lower_bound == 12
        assert model.ratio(0) == pytest.approx(1.0)

    def test_empty_bound_is_vacuous_not_crashing(self):
        model = RooflineModel(spans={}, traffic={})
        assert model.lower_bound == 0
        assert model.ratio(0) == 1.0

    def test_report_keys_deterministic(self):
        report = RooflineModel({"a": 8}, {"a": 32}).report(2)
        assert report == {
            "footprint_bytes": 8,
            "memory_traffic_bytes": 32,
            "move_traffic_bytes": 8.0,
            "total_traffic_bytes": 40.0,
            "lower_bound_bytes": 8,
            "ratio": 5.0,
        }

    def test_build_from_prepared_is_sound(self, table_prepared):
        model = build_roofline(table_prepared)
        assert model.lower_bound > 0
        assert model.memory_traffic >= model.lower_bound
        assert model.ratio(0) >= 1.0

    def test_roofline_for_memoizes(self, table_prepared):
        assert roofline_for(table_prepared) is roofline_for(table_prepared)

    def test_outcomes_carry_roofline(self, table_prepared, machine):
        unified = run_scheme(table_prepared, machine, "unified")
        gdp = run_scheme(table_prepared, machine, "gdp")
        for outcome in (unified, gdp):
            assert outcome.roofline is not None
            assert outcome.roofline["ratio"] >= 1.0
        expected = roofline_for(table_prepared).report(
            unified.eval.dynamic_moves
        )
        assert unified.roofline == expected
