"""Tests for the static-analysis layer: diagnostics model, lint runner,
IR lint rules, and the cross-phase partition validity checker."""

import json

import pytest

from repro.bench import get as get_benchmark
from repro.ir import (
    Constant,
    Function,
    FunctionRef,
    GlobalAddress,
    IRBuilder,
    Module,
    Opcode,
    Operation,
    VirtualRegister,
)
from repro.ir.types import INT, ArrayType, PointerType
from repro.lang import compile_source
from repro.lint import (
    Diagnostic,
    DiagnosticReport,
    PASS_REGISTRY,
    LintRunner,
    Severity,
    check_data_partition,
    check_memory_locks,
    check_moves,
    check_schedule,
    check_scheme_outcome,
    diagnose_lock_violations,
    lint_module,
)
from repro.analysis import annotate_memory_ops
from repro.analysis.objects import ObjectTable
from repro.machine import (
    ClusterConfig,
    FUClass,
    InterclusterNetwork,
    Machine,
    two_cluster_machine,
)
from repro.partition.bugalgo import BUG
from repro.partition.merges import MergedGroup, MergeResult
from repro.partition.rhop import RHOP, RHOPResult, record_infeasible_locks
from repro.exec import RunConfig
from repro.pipeline import Pipeline, PreparedProgram, run_scheme
from repro.cli import main


# -- shared fixtures -----------------------------------------------------------------

THREE_ARRAYS = """
int a[8];
int b[8];
int c[8];
int main() {
  int i;
  int s;
  s = 0;
  for (i = 0; i < 8; i = i + 1) {
    a[i] = i;
    b[i] = i + i;
    c[i] = a[i] + b[i];
    s = s + c[i];
  }
  print_int(s);
  return 0;
}
"""


def lopsided_machine():
    """Two clusters; cluster 1 has no memory unit at all."""
    full = ClusterConfig({FUClass.INT: 2, FUClass.FLOAT: 1,
                          FUClass.MEM: 1, FUClass.BRANCH: 1})
    memless = ClusterConfig({FUClass.INT: 2, FUClass.FLOAT: 1,
                             FUClass.MEM: 0, FUClass.BRANCH: 1})
    return Machine([full, memless], InterclusterNetwork(5, 1))


def single_load_module():
    mod = Module("m")
    mod.add_global("g", INT, 0)
    func = Function("main", [], INT)
    bld = IRBuilder(func)
    bld.set_block(bld.new_block("entry"))
    v = bld.load(GlobalAddress("g", INT))
    bld.ret(v)
    mod.add_function(func)
    annotate_memory_ops(mod)
    return mod


def op_by_opcode(func, opcode):
    for op in func.operations():
        if op.opcode is opcode:
            return op
    raise AssertionError(f"no {opcode} in {func.name}")


# -- diagnostics model ---------------------------------------------------------------

class TestDiagnostics:
    def test_severity_rank_orders_errors_first(self):
        assert Severity.ERROR.rank < Severity.WARNING.rank < Severity.INFO.rank

    def test_location_forms(self):
        assert Diagnostic(Severity.ERROR, "r", "m").location() == "<module>"
        assert Diagnostic(Severity.ERROR, "r", "m", func="f").location() == "f"
        d = Diagnostic(Severity.ERROR, "r", "m", func="f", block="b")
        assert d.location() == "f/b"

    def test_to_dict_omits_none_fields(self):
        d = Diagnostic(Severity.WARNING, "rule", "msg", func="f")
        assert d.to_dict() == {
            "severity": "warning", "rule": "rule", "message": "msg", "func": "f",
        }

    def test_render_includes_hint_op_and_phase(self):
        d = Diagnostic(Severity.ERROR, "r", "msg", func="f", block="b",
                       op="%v0 = mov 1", hint="fix it", phase="gdp")
        text = d.render()
        assert "error[r] f/b: msg" in text
        assert "%v0 = mov 1" in text
        assert "hint: fix it" in text
        assert "(phase: gdp)" in text

    def test_report_queries_and_summary(self):
        report = DiagnosticReport()
        report.warning("w-rule", "warn")
        report.error("e-rule", "err")
        report.info("i-rule", "note")
        assert report.has_errors
        assert len(report) == 3
        assert [d.rule for d in report.errors] == ["e-rule"]
        assert [d.rule for d in report.warnings] == ["w-rule"]
        assert report.by_rule("i-rule")[0].severity is Severity.INFO
        assert report.summary() == "1 error(s), 1 warning(s), 1 note(s)"

    def test_sorted_puts_errors_before_warnings(self):
        report = DiagnosticReport()
        report.warning("b-rule", "later", func="a")
        report.error("a-rule", "first", func="z")
        ordered = [d.rule for d in report.sorted()]
        assert ordered == ["a-rule", "b-rule"]

    def test_render_text_empty(self):
        assert DiagnosticReport().render_text() == "no diagnostics"

    def test_golden_json_report(self):
        report = DiagnosticReport()
        report.warning(
            "dead-store", "definition of %v2 is overwritten before any use",
            func="main", block="entry", op="%v2 = mov 0",
            hint="delete the operation or reorder the defs",
        )
        report.error(
            "lock-violation",
            "memory operation placed on cluster 1 but its object(s) {g:a} "
            "are homed on cluster 0",
            func="main", block="entry", op="%v1 = load %v0", phase="rhop",
        )
        expected = """\
{
  "diagnostics": [
    {
      "block": "entry",
      "func": "main",
      "message": "memory operation placed on cluster 1 but its object(s) {g:a} are homed on cluster 0",
      "op": "%v1 = load %v0",
      "phase": "rhop",
      "rule": "lock-violation",
      "severity": "error"
    },
    {
      "block": "entry",
      "func": "main",
      "hint": "delete the operation or reorder the defs",
      "message": "definition of %v2 is overwritten before any use",
      "op": "%v2 = mov 0",
      "rule": "dead-store",
      "severity": "warning"
    }
  ],
  "summary": {
    "errors": 1,
    "total": 2,
    "warnings": 1
  }
}"""
        assert report.to_json() == expected

    def test_json_is_deterministic_across_insert_order(self):
        a, b = DiagnosticReport(), DiagnosticReport()
        a.warning("w", "x", func="f")
        a.error("e", "y", func="g")
        b.error("e", "y", func="g")
        b.warning("w", "x", func="f")
        assert a.to_json() == b.to_json()


# -- runner / registry ---------------------------------------------------------------

class TestRunner:
    def test_default_registry_contains_all_passes(self):
        assert {"verify", "unreachable", "dead-code", "uninit",
                "globals", "pointsto"} <= set(PASS_REGISTRY)

    def test_only_selects_a_subset(self):
        module = compile_source("int main() { return 0; }", "m")
        runner = LintRunner(only=["dead-code"])
        assert [p.name for p in runner.passes] == ["dead-code"]
        runner.run(module)  # runs without the other passes

    def test_unknown_pass_name_rejected(self):
        with pytest.raises(ValueError, match="unknown lint pass"):
            LintRunner(only=["bogus"])

    def test_analysis_context_caches(self):
        from repro.analysis import TIERS, Analyses, op_locations
        from repro.lint import LintContext

        module = compile_source(
            "int g[4]; int main() { g[1] = 3; print_int(g[1]); return 0; }",
            "m",
        )
        ctx = LintContext(module)
        assert isinstance(ctx, Analyses)
        func = module.function("main")
        per_function = (
            ctx.cfg, ctx.dominators, ctx.defuse, ctx.live_facts,
            ctx.must_defined,
        )
        for accessor in per_function:
            assert accessor(func) is accessor(func), accessor.__name__
        whole_module = (
            ctx.intervals, ctx.execution_bounds, ctx.static_profile,
            ctx.objects, ctx.op_locations,
        )
        for accessor in whole_module:
            assert accessor() is accessor(), accessor.__name__
        for tier in TIERS:
            for accessor in (ctx.pointsto, ctx.access_regions, ctx.modref):
                assert accessor(tier) is accessor(tier), (accessor, tier)
            assert ctx.pointsto(tier).tier == tier
        assert ctx.pointsto() is ctx.pointsto("andersen")
        assert ctx.access_regions("cs") is not ctx.access_regions()
        assert ctx.op_locations() == op_locations(module)
        assert "g:g" in ctx.objects().objects
        assert ctx.memo("custom", lambda: [1]) is ctx.memo("custom", list)

    def test_dynamic_oracle_lint_solves_execution_bounds_once(
        self, monkeypatch
    ):
        from repro.analysis import ExecutionBounds
        from repro.lint import lint_with_stats
        from repro.profiler import Interpreter

        bench = get_benchmark("rawcaudio")
        module = compile_source(bench.source, bench.name)
        interp = Interpreter(module)
        interp.run()
        built = []
        init = ExecutionBounds.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ExecutionBounds, "__init__", counting_init)
        report, ctx = lint_with_stats(module, profile=interp.profile)
        assert ctx.static_profile() is ctx.static_profile()
        assert len(built) == 1


# -- IR lint rules: one deliberately broken fixture per rule -------------------------

class TestIRRules:
    def test_clean_program_has_no_errors(self):
        report = lint_module(compile_source("int main() { return 0; }", "m"))
        assert not report.has_errors

    def test_ir_verify_surfaces_verifier_errors(self):
        mod = single_load_module()
        mod.function("main").entry.insert(0, Operation(
            Opcode.CALL, None,
            [FunctionRef("print_int", INT), Constant(1), Constant(2)],
            attrs={"callee": "print_int"},
        ))
        report = lint_module(mod)
        diags = report.by_rule("ir-verify")
        assert diags and diags[0].severity is Severity.ERROR
        assert diags[0].func == "main"
        assert "expected 1" in diags[0].message

    def test_unreachable_block(self):
        func = Function("f", [], INT)
        func.add_block("entry").append(Operation(Opcode.RET, srcs=[Constant(0)]))
        func.add_block("island").append(Operation(Opcode.RET, srcs=[Constant(1)]))
        mod = Module("m")
        mod.add_function(func)
        report = lint_module(mod, only=["unreachable"])
        diags = report.by_rule("unreachable-block")
        assert [d.block for d in diags] == ["island"]

    def test_dead_store(self):
        src = "int main() { int x; x = 1; x = 2; return x; }"
        report = lint_module(compile_source(src, "m"))
        assert report.by_rule("dead-store")
        assert not report.has_errors

    def test_never_read_def(self):
        src = "int main() { int x; x = 5; return 0; }"
        report = lint_module(compile_source(src, "m"))
        assert report.by_rule("never-read-def")

    def test_uninitialized_read_is_error(self):
        func = Function("f", [], INT)
        func.add_block("entry").append(
            Operation(Opcode.RET, srcs=[VirtualRegister(7, INT)])
        )
        mod = Module("m")
        mod.add_function(func)
        report = lint_module(mod, only=["uninit"])
        diags = report.by_rule("uninitialized-read")
        assert diags and diags[0].severity is Severity.ERROR

    def test_maybe_uninitialized_on_partial_paths(self):
        # diamond: x defined only on the left branch, read at the join
        func = Function("f", [], INT)
        bld = IRBuilder(func)
        entry = bld.new_block("entry")
        left = bld.new_block("left")
        right = bld.new_block("right")
        join = bld.new_block("join")
        x = func.new_vreg(INT)
        bld.set_block(entry)
        cond = bld.mov(Constant(1))
        bld.cbr(cond, left, right)
        left.append(Operation(Opcode.MOV, x, [Constant(1)]))
        left.append(Operation(Opcode.BR, targets=["join"]))
        right.append(Operation(Opcode.BR, targets=["join"]))
        join.append(Operation(Opcode.RET, srcs=[x]))
        mod = Module("m")
        mod.add_function(func)
        report = lint_module(mod, only=["uninit"])
        diags = report.by_rule("maybe-uninitialized")
        assert [d.block for d in diags] == ["join"]
        assert diags[0].severity is Severity.WARNING
        assert not report.by_rule("uninitialized-read")

    def test_unused_global(self):
        mod = single_load_module()
        mod.add_global("never_touched", ArrayType(INT, 4), None)
        report = lint_module(mod, only=["globals"])
        diags = report.by_rule("unused-global")
        assert [d for d in diags if "never_touched" in d.message]

    def _pointer_soup_module(self):
        mod = Module("m")
        mod.add_global("a", ArrayType(INT, 8), None)
        mod.add_global("b", ArrayType(INT, 8), None)
        func = Function("main", [], INT)
        bld = IRBuilder(func)
        entry = bld.new_block("entry")
        bld.set_block(entry)
        ptr_t = PointerType(INT)
        sel = func.new_vreg(ptr_t)
        entry.append(Operation(Opcode.SELECT, sel, [
            Constant(1), GlobalAddress("a", ptr_t), GlobalAddress("b", ptr_t),
        ]))
        both = func.new_vreg(INT)
        entry.append(Operation(Opcode.LOAD, both, [sel]))
        # a "pointer" laundered through an int conversion: untrackable
        zero = func.new_vreg(INT)
        entry.append(Operation(Opcode.MOV, zero, [Constant(0)]))
        laundered = func.new_vreg(ptr_t)
        entry.append(Operation(Opcode.ITOF, laundered, [zero]))
        lost = func.new_vreg(INT)
        entry.append(Operation(Opcode.LOAD, lost, [laundered]))
        entry.append(Operation(Opcode.RET, srcs=[both]))
        mod.add_function(func)
        return mod

    def test_pointsto_unknown_and_imprecise(self):
        report = lint_module(self._pointer_soup_module(), only=["pointsto"])
        assert report.by_rule("pointsto-unknown")
        assert report.by_rule("pointsto-imprecise")
        assert not report.has_errors  # precision findings are warnings

    def test_every_shipped_benchmark_is_error_free(self):
        for name in ("fir", "sobel", "viterbi"):
            bench = get_benchmark(name)
            report = lint_module(compile_source(bench.source, bench.name))
            assert not report.has_errors, report.render_text()


# -- partition validity checker ------------------------------------------------------

class TestDataPartitionChecker:
    def _table(self):
        module = compile_source(THREE_ARRAYS, "m")
        annotate_memory_ops(module)
        return module, ObjectTable(module)

    def test_valid_partition_is_clean(self):
        _, objects = self._table()
        home = {"g:a": 0, "g:b": 1, "g:c": 0}
        report = check_data_partition(objects, home, two_cluster_machine())
        assert len(report) == 0

    def test_missing_home_flagged(self):
        _, objects = self._table()
        report = check_data_partition(
            objects, {"g:a": 0, "g:b": 1}, two_cluster_machine()
        )
        diags = report.by_rule("object-home-missing")
        assert diags and "g:c" in diags[0].message

    def test_out_of_range_home_flagged(self):
        _, objects = self._table()
        home = {"g:a": 0, "g:b": 1, "g:c": 99}
        report = check_data_partition(objects, home, two_cluster_machine())
        assert report.by_rule("object-home-range")

    def test_homed_twice_split_merge_group(self):
        _, objects = self._table()
        merge = MergeResult()
        group = MergedGroup(0)
        group.object_ids = {"g:a", "g:b"}
        merge.groups[0] = group
        home = {"g:a": 0, "g:b": 1, "g:c": 0}
        report = check_data_partition(
            objects, home, two_cluster_machine(), merge=merge
        )
        diags = report.by_rule("object-home-conflict")
        assert diags and diags[0].severity is Severity.ERROR
        assert "homed twice" in diags[0].message

    def test_size_imbalance_warning_then_error(self):
        _, objects = self._table()  # three 32-byte arrays, 96 bytes total
        machine = two_cluster_machine()
        # two of three objects on one side: over the 1.0x cap (48), but
        # within one atomic object (32) of it -> warning
        report = check_data_partition(
            objects, {"g:a": 0, "g:b": 0, "g:c": 1}, machine,
            size_imbalance=1.0,
        )
        diags = report.by_rule("size-imbalance")
        assert diags and diags[0].severity is Severity.WARNING
        # everything on one side: beyond any granularity slack -> error
        report = check_data_partition(
            objects, {"g:a": 0, "g:b": 0, "g:c": 0}, machine,
            size_imbalance=1.0,
        )
        assert any(
            d.severity is Severity.ERROR
            for d in report.by_rule("size-imbalance")
        )

    def test_memory_capacity_overflow(self):
        _, objects = self._table()
        tiny = ClusterConfig(
            {FUClass.INT: 2, FUClass.FLOAT: 1, FUClass.MEM: 1,
             FUClass.BRANCH: 1},
            memory_bytes=16,
        )
        machine = Machine([tiny, tiny], InterclusterNetwork(5, 1))
        report = check_data_partition(
            objects, {"g:a": 0, "g:b": 1, "g:c": 1}, machine
        )
        assert report.by_rule("memory-capacity")


class TestLockChecker:
    def test_wrong_home_placement_flagged(self):
        module = single_load_module()
        load = op_by_opcode(module.function("main"), Opcode.LOAD)
        ret = op_by_opcode(module.function("main"), Opcode.RET)
        assignment = {load.uid: 1, ret.uid: 1}
        report = check_memory_locks(module, assignment, {"g:g": 0})
        diags = report.by_rule("lock-violation")
        assert diags and diags[0].phase == "rhop"
        assert "cluster 1" in diags[0].message and "cluster 0" in diags[0].message

    def test_honoured_locks_are_clean(self):
        module = single_load_module()
        load = op_by_opcode(module.function("main"), Opcode.LOAD)
        ret = op_by_opcode(module.function("main"), Opcode.RET)
        report = check_memory_locks(
            module, {load.uid: 0, ret.uid: 1}, {"g:g": 0}
        )
        assert len(report) == 0


class TestMoveChecker:
    def _two_op_module(self):
        func = Function("f", [], INT)
        bld = IRBuilder(func)
        bld.set_block(bld.new_block("entry"))
        v = bld.mov(Constant(1))
        bld.ret(v)
        mod = Module("m")
        mod.add_function(func)
        mov = op_by_opcode(func, Opcode.MOV)
        ret = op_by_opcode(func, Opcode.RET)
        return mod, mov, ret

    def test_cut_edge_without_move_flagged(self):
        mod, mov, ret = self._two_op_module()
        report = check_moves(
            mod, {mov.uid: 0, ret.uid: 1}, two_cluster_machine()
        )
        diags = report.by_rule("cut-edge-unmoved")
        assert diags and diags[0].severity is Severity.ERROR

    def test_same_cluster_flow_is_clean(self):
        mod, mov, ret = self._two_op_module()
        report = check_moves(
            mod, {mov.uid: 0, ret.uid: 0}, two_cluster_machine()
        )
        assert len(report) == 0

    def test_unassigned_op_flagged(self):
        mod, mov, ret = self._two_op_module()
        report = check_moves(mod, {mov.uid: 0}, two_cluster_machine())
        assert report.by_rule("unassigned-op")

    def test_infeasible_resources_flagged(self):
        module = single_load_module()
        load = op_by_opcode(module.function("main"), Opcode.LOAD)
        ret = op_by_opcode(module.function("main"), Opcode.RET)
        report = check_moves(
            module, {load.uid: 1, ret.uid: 1}, lopsided_machine()
        )
        diags = report.by_rule("infeasible-resources")
        assert diags and "mem" in diags[0].message

    def _with_icmove(self, src_cluster, dst_cluster, assigned):
        func = Function("f", [], INT)
        bld = IRBuilder(func)
        bld.set_block(bld.new_block("entry"))
        v = bld.mov(Constant(1))
        copy = func.new_vreg(INT)
        icmove = Operation(
            Opcode.ICMOVE, copy, [v],
            attrs={"from": src_cluster, "to": dst_cluster},
        )
        bld.block.append(icmove)
        bld.ret(copy)
        mod = Module("m")
        mod.add_function(func)
        mov = op_by_opcode(func, Opcode.MOV)
        ret = op_by_opcode(func, Opcode.RET)
        assignment = {mov.uid: 0, icmove.uid: assigned, ret.uid: assigned}
        return mod, assignment

    def test_correct_icmove_bridges_cut_edge(self):
        mod, assignment = self._with_icmove(0, 1, 1)
        report = check_moves(mod, assignment, two_cluster_machine())
        assert len(report) == 0

    def test_icmove_endpoint_mismatch_flagged(self):
        mod, assignment = self._with_icmove(0, 1, 0)
        report = check_moves(mod, assignment, two_cluster_machine())
        assert report.by_rule("icmove-mismatch")

    def test_useless_same_cluster_icmove_warned(self):
        mod, assignment = self._with_icmove(0, 0, 0)
        report = check_moves(mod, assignment, two_cluster_machine())
        diags = report.by_rule("useless-icmove")
        assert diags and diags[0].severity is Severity.WARNING

    def test_icmove_wrong_source_cluster_flagged(self):
        mod, assignment = self._with_icmove(1, 1, 1)
        report = check_moves(mod, assignment, two_cluster_machine())
        assert report.by_rule("icmove-bad-source")


class TestScheduleChecker:
    def test_schedule_failure_on_unitless_cluster(self):
        module = single_load_module()
        load = op_by_opcode(module.function("main"), Opcode.LOAD)
        ret = op_by_opcode(module.function("main"), Opcode.RET)
        report = check_schedule(
            module, {load.uid: 1, ret.uid: 0}, lopsided_machine()
        )
        diags = report.by_rule("schedule-failure")
        assert diags and diags[0].severity is Severity.ERROR

    def test_feasible_schedule_is_clean(self):
        module = single_load_module()
        load = op_by_opcode(module.function("main"), Opcode.LOAD)
        ret = op_by_opcode(module.function("main"), Opcode.RET)
        report = check_schedule(
            module, {load.uid: 0, ret.uid: 0}, two_cluster_machine()
        )
        assert len(report) == 0


class TestLockReporting:
    """RHOP and BUG share one infeasible-lock reporting path."""

    def test_record_infeasible_locks_helper(self):
        module = single_load_module()
        load = op_by_opcode(module.function("main"), Opcode.LOAD)
        result = RHOPResult()
        record_infeasible_locks(
            lopsided_machine(), module.function("main"), {load.uid: 1}, result
        )
        assert result.lock_violations == [("main", load.uid, 1)]

    def test_rhop_records_and_attributes_phase(self):
        module = single_load_module()
        load = op_by_opcode(module.function("main"), Opcode.LOAD)
        rhop = RHOP(lopsided_machine())
        result = rhop.partition_module(module, mem_locks={load.uid: 1})
        assert result.phase == "rhop"
        assert result.assignment[load.uid] == 1  # lock honoured regardless
        assert ("main", load.uid, 1) in result.lock_violations
        report = diagnose_lock_violations(result, module)
        diags = report.by_rule("infeasible-lock")
        assert diags and diags[0].phase == "rhop"

    def test_bug_honours_lock_and_records_violation(self):
        # Regression: BUG used to fall back to cluster 0 silently when the
        # locked cluster had no unit of the op's FU class.
        module = single_load_module()
        load = op_by_opcode(module.function("main"), Opcode.LOAD)
        bug = BUG(lopsided_machine())
        result = bug.partition_module(module, mem_locks={load.uid: 1})
        assert result.phase == "bug"
        assert result.assignment[load.uid] == 1
        assert ("main", load.uid, 1) in result.lock_violations
        report = diagnose_lock_violations(result, module)
        assert report.by_rule("infeasible-lock")[0].phase == "bug"

    def test_feasible_locks_record_nothing(self):
        module = single_load_module()
        load = op_by_opcode(module.function("main"), Opcode.LOAD)
        for algo in (RHOP(two_cluster_machine()), BUG(two_cluster_machine())):
            result = algo.partition_module(module, mem_locks={load.uid: 1})
            assert result.lock_violations == []
            assert result.assignment[load.uid] == 1


# -- pipeline integration ------------------------------------------------------------

class TestPipelineValidation:
    @pytest.fixture(scope="class")
    def prepared(self):
        return PreparedProgram.from_source(THREE_ARRAYS, "m")

    def test_all_schemes_validate_cleanly(self, prepared):
        pipe = Pipeline(RunConfig(validate=True, cache="off"))
        for scheme in ("unified", "gdp", "profilemax", "naive"):
            outcome = pipe.run(prepared, scheme)
            assert outcome.cycles > 0

    def test_mutated_gdp_home_rejected_by_validation(self, prepared):
        machine = two_cluster_machine(move_latency=5)
        outcome = run_scheme(prepared, machine, "gdp")
        outcome.object_home[sorted(outcome.object_home)[0]] = 99
        report = check_scheme_outcome(prepared, outcome)
        diags = report.by_rule("object-home-range")
        assert diags and diags[0].phase == "gdp"

    def test_missing_home_rejected_by_validation(self, prepared):
        machine = two_cluster_machine(move_latency=5)
        outcome = run_scheme(prepared, machine, "gdp")
        outcome.object_home.pop(sorted(outcome.object_home)[0])
        report = check_scheme_outcome(prepared, outcome)
        assert report.by_rule("object-home-missing")

    def test_post_hoc_mutated_home_caught_by_lock_check(self, prepared):
        outcome = Pipeline(RunConfig(cache="off")).run(prepared, "gdp")
        flipped = {
            obj: (1 - c) for obj, c in outcome.object_home.items()
        }
        report = check_memory_locks(
            outcome.module, outcome.assignment, flipped,
            prepared.object_access_counts(),
        )
        assert report.by_rule("lock-violation")

    def test_check_scheme_outcome_clean_on_real_run(self, prepared):
        outcome = Pipeline(RunConfig(cache="off")).run(prepared, "gdp")
        report = check_scheme_outcome(prepared, outcome)
        assert not report.has_errors, report.render_text()

    def test_validation_off_by_default_allows_bad_home(self, prepared):
        machine = two_cluster_machine(move_latency=5)
        good = run_scheme(prepared, machine, "gdp").object_home
        bad = dict(good)
        bad.pop(sorted(bad)[0])
        run_scheme(prepared, machine, "gdp", object_home=bad)  # no raise


# -- CLI -----------------------------------------------------------------------------

class TestLintCLI:
    @pytest.fixture()
    def clean_file(self, tmp_path):
        path = tmp_path / "clean.mc"
        path.write_text("int main() { return 0; }\n")
        return str(path)

    @pytest.fixture()
    def warny_file(self, tmp_path):
        path = tmp_path / "warny.mc"
        path.write_text("int main() { int x; x = 1; x = 2; return x; }\n")
        return str(path)

    def test_lint_clean_program(self, clean_file, capsys):
        assert main(["lint", clean_file]) == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_lint_warnings_exit_zero_without_strict(self, warny_file, capsys):
        assert main(["lint", warny_file]) == 0
        assert "dead-store" in capsys.readouterr().out

    def test_lint_strict_fails_on_warnings(self, warny_file, capsys):
        assert main(["lint", warny_file, "--strict"]) == 1

    def test_lint_json_output(self, warny_file, capsys):
        assert main(["lint", warny_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 0
        assert any(
            d["rule"] == "dead-store" for d in payload["diagnostics"]
        )

    def test_lint_only_selects_pass(self, warny_file, capsys):
        assert main(["lint", warny_file, "--only", "globals"]) == 0
        assert "dead-store" not in capsys.readouterr().out

    def test_lint_unknown_pass_exits_2(self, warny_file, capsys):
        assert main(["lint", warny_file, "--only", "bogus"]) == 2
        assert "unknown lint pass" in capsys.readouterr().err

    def test_lint_example_script_and_extension_resolution(self, capsys):
        assert main(["lint", "examples/quickstart"]) == 0
        assert main(["lint", "examples/quickstart.py"]) == 0
        out = capsys.readouterr().out
        assert "0 error" in out or "no diagnostics" in out

    def test_lint_verify_partition(self, capsys):
        assert main([
            "lint", "examples/quickstart", "--verify-partition",
            "--scheme", "gdp",
        ]) == 0

    def test_partition_verify_flag(self, clean_file, capsys):
        assert main([
            "partition", clean_file, "--verify-partition", "--scheme", "gdp",
        ]) == 0
        assert "cycles:" in capsys.readouterr().out
