"""Tests for the abstract-interpretation dataflow stack.

Covers the generic worklist engine, the interval client (widening,
branch refinement, interprocedural lifting), trip counts and execution
bounds, the static access-region profile, and the static-vs-dynamic
drift differ — the ``--profile static`` tentpole end to end.
"""

import math

import pytest

from repro.analysis import annotate_memory_ops
from repro.analysis.cfg import CFG
from repro.analysis.dataflow import (
    DataflowProblem,
    ExecutionBounds,
    IntervalAnalysis,
    SetLattice,
    solve,
)
from repro.analysis.dataflow.staticprofile import build_static_profile
from repro.lang import compile_source
from repro.lint import diff_static_dynamic, drift_summary, lint_module
from repro.profiler import Interpreter


def interpret(module, max_steps=2_000_000):
    interp = Interpreter(module, max_steps=max_steps)
    interp.run()
    return interp.profile


LOOP_SRC = """
int main() {
  int s = 0;
  for (int i = 0; i < 10; i = i + 1) {
    s = s + i;
  }
  return s;
}
"""

ARRAY_SRC = """
int A[32];
int B[32];
int main() {
  for (int i = 0; i < 32; i = i + 1) {
    A[i] = i;
  }
  int s = 0;
  for (int j = 0; j < 16; j = j + 2) {
    B[j] = A[j] + A[j + 1];
    s = s + B[j];
  }
  print_int(s);
  return 0;
}
"""


# -- the generic engine --------------------------------------------------------------


class _ReachingBlocks(DataflowProblem):
    """Toy forward may-analysis: indices of blocks on some path here."""

    direction = "forward"

    def __init__(self, func):
        names = sorted(func.blocks)
        self.index = {name: i for i, name in enumerate(names)}
        super().__init__(SetLattice(frozenset(self.index.values())))

    def boundary(self):
        return frozenset()

    def transfer(self, block, state):
        return state | {self.index[block.name]}


class TestEngine:
    def test_forward_may_reaches_fixpoint(self):
        func = compile_source(LOOP_SRC, "t").function("main")
        cfg = CFG(func)
        problem = _ReachingBlocks(func)
        solution = solve(func, cfg, problem)
        # Every reachable block sees itself in its out state.
        for name in cfg.reachable():
            assert problem.index[name] in solution.out_of(name)
        # The entry's in state is the boundary.
        assert solution.in_of(cfg.entry) == frozenset()

    def test_unreachable_block_reports_bottom(self):
        from repro.ir import Constant, Function, Opcode, Operation
        from repro.ir.types import INT

        func = Function("f", [], INT)
        func.add_block("entry").append(
            Operation(Opcode.RET, srcs=[Constant(0)])
        )
        func.add_block("island").append(
            Operation(Opcode.RET, srcs=[Constant(1)])
        )
        cfg = CFG(func)
        problem = _ReachingBlocks(func)
        solution = solve(func, cfg, problem)
        assert solution.in_of("island") == problem.lattice.bottom()

    def test_must_lattice_meets(self):
        lattice = SetLattice(frozenset({1, 2, 3}), must=True)
        assert lattice.join(frozenset({1, 2}), frozenset({2, 3})) == {2}
        assert lattice.bottom() == {1, 2, 3}


# -- the interval client -------------------------------------------------------------


class TestIntervals:
    def test_widening_terminates_and_bounds_counter(self):
        module = compile_source(LOOP_SRC, "t")
        analysis = IntervalAnalysis(module)
        func = module.function("main")
        # Some block's entry env carries the induction variable with a
        # finite-from-below interval (starts at 0, widened above).
        envs = [
            analysis.env_at_entry("main", b)
            for b in func.blocks
            if analysis.env_at_entry("main", b)
        ]
        assert envs
        lows = [
            iv.lo for env in envs for iv in env.values() if iv.lo > -(2**31)
        ]
        assert lows, "widening lost every lower bound"

    def test_interprocedural_parameter_lifting(self):
        src = """
        int scale(int x) { return x * 2; }
        int main() { return scale(21); }
        """
        module = compile_source(src, "t")
        analysis = IntervalAnalysis(module)
        func = module.function("scale")
        env = analysis.env_at_entry("scale", func.entry.name)
        param = func.params[0]
        assert env is not None
        got = env.get(param.vid)
        assert got is not None and got.lo == 21 and got.hi == 21

    def test_recursive_function_params_are_top(self):
        src = """
        int f(int n) { if (n) { return f(n - 1); } return 0; }
        int main() { return f(3); }
        """
        module = compile_source(src, "t")
        analysis = IntervalAnalysis(module)
        func = module.function("f")
        env = analysis.env_at_entry("f", func.entry.name)
        assert env is not None
        assert env.get(func.params[0].vid) is None  # TOP entries dropped

    def test_constant_condition_detected(self):
        src = """
        int main() {
          int x = 5;
          if (x < 3) { return 1; }
          return 0;
        }
        """
        module = compile_source(src, "t")
        analysis = IntervalAnalysis(module)
        found = list(analysis.constant_conditions("main"))
        assert found, "x < 3 with x = 5 must fold"
        _block, term, cond, taken = found[0]
        assert cond.is_const() and cond.lo == 0
        assert taken == term.targets[1]

    def test_data_dependent_condition_not_constant(self):
        module = compile_source(LOOP_SRC, "t")
        analysis = IntervalAnalysis(module)
        assert list(analysis.constant_conditions("main")) == []

    def test_branch_refinement_bounds_loop_index(self):
        # Inside `for (i = 0; i < 32; ...)` the body-entry env must carry
        # i <= 31 — that is the edge refinement the region analysis needs.
        src = """
        int A[32];
        int main() {
          for (int i = 0; i < 32; i = i + 1) {
            A[i] = i;
          }
          return 0;
        }
        """
        module = compile_source(src, "t")
        analysis = IntervalAnalysis(module)
        func = module.function("main")
        body_hi = []
        for name in func.blocks:
            block = func.blocks[name]
            if any(op.is_memory_access() for op in block.ops):
                env = analysis.env_at_entry("main", name)
                assert env is not None
                body_hi.extend(iv.hi for iv in env.values())
        assert body_hi and min(body_hi) <= 31

    def test_infeasible_edge_marks_block_unreachable(self):
        src = """
        int main() {
          int x = 5;
          if (x < 3) { return 1; }
          return 0;
        }
        """
        module = compile_source(src, "t")
        analysis = IntervalAnalysis(module)
        func = module.function("main")
        dead = [
            name
            for name in func.blocks
            if analysis.env_at_entry("main", name) is None
        ]
        # The `return 1` arm is only reachable through 5 < 3.
        assert dead


# -- execution bounds and trip counts ------------------------------------------------


class TestExecutionBounds:
    def test_counted_loop_bound_contains_dynamic(self):
        module = compile_source(LOOP_SRC, "t")
        bounds = ExecutionBounds(module)
        profile = interpret(module)
        for (fname, bname), count in profile.block_counts.items():
            assert count <= bounds.block_bound(fname, bname), (
                fname, bname,
            )

    def test_non_unit_steps_contained(self):
        src = """
        int main() {
          int s = 0;
          for (int i = 0; i < 20; i = i + 3) {
            for (int j = 10; j > 0; j = j - 2) {
              s = s + j;
            }
          }
          return s;
        }
        """
        module = compile_source(src, "t")
        bounds = ExecutionBounds(module)
        profile = interpret(module)
        for (fname, bname), count in profile.block_counts.items():
            assert count <= bounds.block_bound(fname, bname)
        # And the bound is finite — the analysis recognised both loops.
        inner_max = max(profile.block_counts.values())
        finite = [
            bounds.block_bound("main", b)
            for b in module.function("main").blocks
        ]
        assert all(not math.isinf(b) for b in finite)
        assert max(finite) >= inner_max

    def test_recursion_is_unbounded_but_estimated(self):
        src = """
        int f(int n) { if (n) { return f(n - 1); } return 0; }
        int main() { return f(3); }
        """
        module = compile_source(src, "t")
        bounds = ExecutionBounds(module)
        assert math.isinf(bounds.entry_bounds["f"])
        assert bounds.entry_estimates["f"] >= 1

    def test_uncalled_function_bounded_by_zero(self):
        src = """
        int ghost(int x) { return x; }
        int main() { return 0; }
        """
        module = compile_source(src, "t")
        bounds = ExecutionBounds(module)
        assert bounds.entry_bounds["ghost"] == 0


# -- the static profile --------------------------------------------------------------


class TestStaticProfile:
    def prepared(self, src):
        module = compile_source(src, "t")
        pointsto = annotate_memory_ops(module)
        static = build_static_profile(module, pointsto=pointsto)
        dynamic = interpret(module)
        return module, static, dynamic

    def test_is_static(self):
        module, static, dynamic = self.prepared(ARRAY_SRC)
        assert static.is_static()
        assert not dynamic.is_static()

    def test_counters_nonempty(self):
        _module, static, _dynamic = self.prepared(ARRAY_SRC)
        assert static.block_counts
        assert static.op_object_counts
        assert static.op_weight_bounds

    def test_bounds_contain_dynamic_profile(self):
        module, static, dynamic = self.prepared(ARRAY_SRC)
        report = diff_static_dynamic(module, dynamic, static)
        assert not report.has_errors, report.render_text()

    def test_regions_cover_array_walks(self):
        module, static, _dynamic = self.prepared(ARRAY_SRC)
        # The first loop walks all of A; its coalesced static region must
        # reach A's full 128 bytes (or claim the whole object).
        regions = static.object_static_regions.get("g:A")
        if regions is not None:
            assert regions[0][0] == 0
            assert regions[-1][1] == 128


# -- the drift differ ----------------------------------------------------------------


class TestStaticDiff:
    def fixture(self):
        module = compile_source(ARRAY_SRC, "t")
        pointsto = annotate_memory_ops(module)
        static = build_static_profile(module, pointsto=pointsto)
        dynamic = interpret(module)
        return module, static, dynamic

    def test_clean_on_sound_bounds(self):
        module, static, dynamic = self.fixture()
        report = diff_static_dynamic(module, dynamic, static)
        assert not report.has_errors
        assert report.stats["staticdiff"]["violations"] == 0

    def test_weight_violation_detected(self):
        module, static, dynamic = self.fixture()
        uid = next(iter(dynamic.op_object_counts))
        static.op_weight_bounds[uid] = 0
        report = diff_static_dynamic(module, dynamic, static)
        assert report.by_rule("staticdiff-weight")

    def test_block_violation_detected(self):
        module, static, dynamic = self.fixture()
        key = next(iter(dynamic.block_counts))
        static.block_bounds[key] = dynamic.block_counts[key] - 1
        report = diff_static_dynamic(module, dynamic, static)
        assert report.by_rule("staticdiff-block")

    def test_missing_block_bound_detected(self):
        module, static, dynamic = self.fixture()
        key = next(iter(dynamic.block_counts))
        del static.block_bounds[key]
        report = diff_static_dynamic(module, dynamic, static)
        diags = report.by_rule("staticdiff-block")
        assert diags and "no bound" in diags[0].message

    def test_region_violation_detected(self):
        module, static, dynamic = self.fixture()
        tampered = False
        for uid, per_obj in dynamic.op_object_regions.items():
            for obj, (lo, hi) in per_obj.items():
                claimed = static.static_regions.get(uid, {})
                if claimed.get(obj) is not None:
                    slo, shi = claimed[obj]
                    static.static_regions[uid][obj] = (slo, max(slo + 1, hi - 1))
                    if hi > max(slo + 1, hi - 1):
                        tampered = True
                        break
            if tampered:
                break
        if not tampered:
            pytest.skip("no finite region to tamper with")
        report = diff_static_dynamic(module, dynamic, static)
        assert report.by_rule("staticdiff-region")

    def test_drift_summary_shape(self):
        module, static, dynamic = self.fixture()
        summary = drift_summary(module, dynamic, static)
        assert summary["ops_compared"] > 0
        assert summary["violations"] == 0
        assert summary["blocks_bounded"] <= summary["blocks_measured"]

    def test_pass_silent_without_profile(self):
        module, _static, _dynamic = self.fixture()
        report = lint_module(module, only=["staticdiff"])
        assert len(report) == 0

    def test_pass_runs_with_profile(self):
        module = compile_source(ARRAY_SRC, "t")
        dynamic = interpret(module)
        report = lint_module(module, only=["staticdiff"], profile=dynamic)
        assert not report.has_errors


# -- the constant-condition lint pass ------------------------------------------------


class TestConstCondPass:
    def test_fires_on_folded_branch(self):
        src = """
        int main() {
          int x = 5;
          if (x < 3) { return 1; }
          return 0;
        }
        """
        module = compile_source(src, "t")
        report = lint_module(module, only=["constcond"])
        diags = report.by_rule("const-condition")
        assert diags
        assert "never" in diags[0].message

    def test_silent_on_data_dependent_branch(self):
        module = compile_source(LOOP_SRC, "t")
        report = lint_module(module, only=["constcond"])
        assert len(report) == 0

    def test_sarif_metadata_for_new_rules_only(self):
        src = """
        int main() {
          int x = 5;
          if (x < 3) { return 1; }
          return 0;
        }
        """
        import json

        module = compile_source(src, "t")
        report = lint_module(module, only=["constcond"])
        log = json.loads(report.to_sarif())
        rules = log["runs"][0]["tool"]["driver"]["rules"]
        assert rules[0]["id"] == "const-condition"
        assert "shortDescription" in rules[0]


# -- the --profile knob end to end ---------------------------------------------------


class TestStaticProfileMode:
    def test_runconfig_validates_profile(self):
        from repro.exec import PROFILE_MODES, RunConfig

        assert "static" in PROFILE_MODES
        assert RunConfig(profile="static").profile == "static"
        with pytest.raises(ValueError):
            RunConfig(profile="oracle")

    def test_profile_in_cache_key(self):
        from repro.exec import RunConfig

        dyn = RunConfig().cache_key_material()
        sta = RunConfig(profile="static").cache_key_material()
        assert dyn != sta
        assert sta["profile"] == "static"

    def test_prepared_static_skips_interpreter(self):
        from repro.exec import RunConfig
        from repro.pipeline import PreparedProgram

        prepared = PreparedProgram.from_source(
            ARRAY_SRC, "t", config=RunConfig(profile="static")
        )
        assert prepared.profile.is_static()
        assert prepared.result is None  # nothing was interpreted
        assert prepared.objects and prepared.merge is not None

    def test_static_prepared_artifact_roundtrip(self):
        from repro.exec import RunConfig
        from repro.exec.artifacts import (
            prepared_from_payload,
            prepared_to_payload,
        )
        from repro.pipeline import PreparedProgram

        prepared = PreparedProgram.from_source(
            ARRAY_SRC, "t", config=RunConfig(profile="static")
        )
        payload = prepared_to_payload(prepared)
        assert payload["profile_mode"] == "static"
        again = prepared_from_payload(payload)
        assert again.profile.is_static()
        assert again.profile.block_counts == prepared.profile.block_counts

    def test_profiler_fault_degrades_to_static_rung(self):
        from repro.exec import RunConfig
        from repro.pipeline import Pipeline
        from repro.resilience import RunReport

        pipe = Pipeline(RunConfig(
            fault_spec="raise:profiler@1", fallback=True, cache="off"
        ))
        report = RunReport()
        prepared = pipe.prepare(ARRAY_SRC, "t", report)
        assert prepared.profile.is_static()
        assert any(
            f.get("from") == "profile:dynamic"
            and f.get("to") == "profile:static"
            for f in report.fallbacks()
        )


# -- trip-count / bound edge cases (PR 9) --------------------------------------------


class TestTripCountEdgeCases:
    def test_negative_induction_step_bounded(self):
        """A countdown loop (negative net progress) gets a finite,
        containing bound from the same induction-step machinery."""
        src = """
        int out[32];
        int main() {
          int s = 0;
          for (int i = 31; i >= 0; i = i - 1) {
            out[i] = s;
            s = s + 1;
          }
          return s;
        }
        """
        module = compile_source(src, "t")
        bounds = ExecutionBounds(module)
        profile = interpret(module)
        finite = True
        for (fname, bname), count in profile.block_counts.items():
            bound = bounds.block_bound(fname, bname)
            assert count <= bound, (fname, bname, count, bound)
            finite = finite and not math.isinf(bound)
        assert finite  # the countdown was recognised, not widened away

    def test_negative_step_with_stride_two(self):
        src = """
        int main() {
          int s = 0;
          for (int i = 19; i > 0; i = i - 2) { s = s + i; }
          return s;
        }
        """
        module = compile_source(src, "t")
        bounds = ExecutionBounds(module)
        profile = interpret(module)
        for (fname, bname), count in profile.block_counts.items():
            bound = bounds.block_bound(fname, bname)
            assert count <= bound
            assert not math.isinf(bound)

    def test_mixed_step_direction_defeats_trip_count(self):
        """An induction variable stepped up on one path and down on the
        other has no strict progress — the loop bound must widen to inf
        rather than invent a finite trip count."""
        src = """
        int main() {
          int i = 0;
          int n = 0;
          while (i < 8) {
            if (n) { i = i - 1; } else { i = i + 1; }
            n = 0;
          }
          return i;
        }
        """
        module = compile_source(src, "t")
        bounds = ExecutionBounds(module)
        header_bounds = [
            bounds.block_bound("main", name)
            for name in module.function("main").blocks
        ]
        assert any(math.isinf(b) for b in header_bounds)

    def test_irreducible_edge_bailout(self):
        """A retreating edge into the middle of another block's cycle is
        invisible to natural-loop detection — every block bound in that
        function must widen to inf (sound bailout), while the estimates
        stay finite."""
        from repro.ir import Function, IRBuilder, Module
        from repro.ir.types import INT

        func = Function("main", [], INT)
        b = IRBuilder(func)
        entry = b.new_block("entry")
        left = b.new_block("left")
        right = b.new_block("right")
        done = b.new_block("done")
        b.set_block(entry)
        cond = b.cmp("lt", b.const(1), b.const(2))
        b.cbr(cond, left, right)
        # left <-> right form a two-block cycle entered at *both* nodes:
        # neither header dominates the other, so the retreating edge is
        # irreducible.
        b.set_block(left)
        c2 = b.cmp("lt", b.const(3), b.const(4))
        b.cbr(c2, right, done)
        b.set_block(right)
        c3 = b.cmp("lt", b.const(5), b.const(6))
        b.cbr(c3, left, done)
        b.set_block(done)
        b.ret(b.const(0))
        module = Module("irreducible")
        module.add_function(func)

        bounds = ExecutionBounds(module)
        assert bounds._irreducible["main"]
        for name in ("left", "right", "done"):
            assert math.isinf(bounds.block_bound("main", name))
        assert bounds.block_estimate("main", "left") >= 1

    def test_adjacent_affine_slots_stay_distinct(self):
        """``coalesce_intervals`` merges overlap but keeps adjacency:
        distinct pointer-table slots ([0,4) vs [4,8)) survive as separate
        regions — the property region splittability is built on."""
        from repro.analysis.affine import coalesce_intervals

        assert coalesce_intervals([(4, 8), (0, 4)]) == [(0, 4), (4, 8)]
        assert coalesce_intervals([(0, 6), (4, 8)]) == [(0, 8)]
        assert coalesce_intervals([(0, 4), (4, 8), (6, 12), (16, 20)]) == [
            (0, 4), (4, 12), (16, 20),
        ]

    def test_pointer_table_regions_decompose_per_slot(self):
        """End to end: the two stores into a two-slot pointer table read
        back as two adjacent-but-disjoint byte regions of the table."""
        from repro.analysis.dataflow import AccessRegionAnalysis

        src = """
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
        module = compile_source(src, "t")
        annotate_memory_ops(module)
        regions = AccessRegionAnalysis(module)
        tab_regions = sorted(
            region
            for per_obj in regions.op_regions.values()
            for obj, region in per_obj.items()
            if obj == "g:tab" and region is not None
        )
        assert (0, 4) in tab_regions
        assert (4, 8) in tab_regions
