"""Tests for the Table-1 schemes, the cycle model, and reporting helpers."""

import pytest

from repro.evalmodel import (
    EvalResult,
    arithmetic_mean,
    bar_chart,
    evaluate_module,
    exhaustive_search,
    format_table,
    geomean,
    scatter_plot,
)
from repro.exec import RunConfig
from repro.machine import two_cluster_machine
from repro.partition.gdp import PROFILE_MAX_IMBALANCE
from repro.pipeline import (
    Pipeline,
    PreparedProgram,
    SCHEME_TABLE,
    run_scheme,
)

SRC = """
int table[64];
int weights[32];
int hist[16];
int out[64];
int main() {
  int i;
  int seed = 9;
  for (i = 0; i < 64; i = i + 1) {
    seed = seed * 1103515245 + 12345;
    table[i] = (seed >> 16) & 255;
  }
  for (i = 0; i < 32; i = i + 1) { weights[i] = (i * 7) & 31; }
  int s = 0;
  for (i = 0; i < 64; i = i + 1) {
    int w = weights[i & 31];
    int v = table[i] * w;
    hist[(v >> 4) & 15] = hist[(v >> 4) & 15] + 1;
    out[i] = v;
    s = s + v;
  }
  print_int(s);
  return s & 65535;
}
"""


@pytest.fixture(scope="module")
def prepared():
    return PreparedProgram.from_source(SRC, "demo")


@pytest.fixture(scope="module")
def machine():
    return two_cluster_machine(move_latency=5)


class TestPreparedProgram:
    def test_profile_collected(self, prepared):
        assert prepared.profile.instructions_executed > 0
        assert prepared.profile.output  # print_int ran

    def test_objects_found(self, prepared):
        ids = set(prepared.objects.ids())
        assert {"g:table", "g:weights", "g:hist", "g:out"} <= ids

    def test_program_graph_built(self, prepared):
        assert prepared.program_graph.node_count() == prepared.module.op_count()
        assert prepared.program_graph.edge_count() > 0

    def test_fresh_copy_isolated(self, prepared):
        clone, uid_map = prepared.fresh_copy()
        clone.function("main").entry.ops.pop()
        assert prepared.module.function("main").entry.ops

    def test_translated_op_counts(self, prepared):
        clone, uid_map = prepared.fresh_copy()
        counts = prepared.translated_op_counts(uid_map)
        clone_uids = {op.uid for f in clone for op in f.operations()}
        assert set(counts) <= clone_uids
        assert counts  # some memory op was executed


class TestSchemes:
    def test_all_four_schemes_run(self, prepared, machine):
        for scheme in SCHEME_TABLE:
            outcome = run_scheme(prepared, machine, scheme)
            assert outcome.cycles > 0
            assert outcome.scheme == scheme

    def test_unknown_scheme_rejected(self, prepared, machine):
        with pytest.raises(ValueError, match="unknown scheme"):
            run_scheme(prepared, machine, "magic")

    def test_unified_has_no_object_homes(self, prepared, machine):
        assert run_scheme(prepared, machine, "unified").object_home is None

    def test_gdp_homes_cover_objects(self, prepared, machine):
        outcome = run_scheme(prepared, machine, "gdp")
        assert set(outcome.object_home) == set(prepared.objects.ids())

    def test_gdp_respects_override(self, prepared, machine):
        homes = {o: 0 for o in prepared.objects.ids()}
        outcome = run_scheme(prepared, machine, "gdp", object_home=homes)
        assert outcome.object_home == homes

    def test_profilemax_runs_rhop_twice(self, prepared, machine):
        outcome = run_scheme(prepared, machine, "profilemax")
        assert outcome.rhop_runs == 2
        assert set(outcome.object_home) == set(prepared.objects.ids())

    def test_profilemax_balance_cap(self, prepared, machine):
        outcome = run_scheme(prepared, machine, "profilemax")
        bytes_per = [0, 0]
        for obj, c in outcome.object_home.items():
            bytes_per[c] += prepared.objects[obj].size
        total = sum(bytes_per)
        biggest_group = max(
            prepared.objects.size_of(g.object_ids)
            for g in prepared.merge.object_groups()
        )
        cap = PROFILE_MAX_IMBALANCE * total / 2
        assert max(bytes_per) <= max(cap, biggest_group) + 1e-9

    def test_naive_places_all_objects(self, prepared, machine):
        outcome = run_scheme(prepared, machine, "naive")
        assert set(outcome.object_home) == set(prepared.objects.ids())

    def test_naive_memory_ops_on_object_home(self, prepared, machine):
        outcome = run_scheme(prepared, machine, "naive")
        for func in outcome.module:
            for op in func.operations():
                if op.is_memory_access() and op.mem_objects():
                    homes = {
                        outcome.object_home[o]
                        for o in op.mem_objects()
                        if o in outcome.object_home
                    }
                    if len(homes) == 1:
                        assert outcome.assignment[op.uid] in homes

    def test_scheme_outcomes_deterministic(self, machine):
        a = run_scheme(PreparedProgram.from_source(SRC, "x"), machine, "gdp")
        b = run_scheme(PreparedProgram.from_source(SRC, "x"), machine, "gdp")
        assert a.cycles == b.cycles
        assert a.object_home == b.object_home

    def test_latency_sweep_monotone_for_naive(self, prepared):
        """More latency never makes the naive scheme run faster."""
        cycles = [
            run_scheme(
                prepared, two_cluster_machine(move_latency=lat), "naive"
            ).cycles
            for lat in (1, 5, 10)
        ]
        assert cycles[0] <= cycles[1] <= cycles[2]


class TestPipelineDriver:
    def test_run_all(self, prepared, machine):
        pipe = Pipeline(RunConfig(cache="off"), machine=machine)
        outcomes = pipe.run_all(prepared)
        assert set(outcomes) == {"unified", "gdp", "profilemax", "naive"}

    def test_compare_relative(self, prepared, machine):
        pipe = Pipeline(RunConfig(cache="off"), machine=machine)
        rel = pipe.compare(prepared, schemes=("gdp",))
        assert 0.2 < rel["gdp"] < 2.0

    def test_prepare_from_source(self, machine):
        pipe = Pipeline(RunConfig(cache="off"), machine=machine)
        prep = pipe.prepare("int main() { return 0; }")
        assert prep.result == 0


class TestEvalModel:
    def test_totals_are_weighted_sums(self, prepared, machine):
        outcome = run_scheme(prepared, machine, "unified")
        ev = outcome.eval
        cycles = sum(b.length * b.frequency for b in ev.blocks.values())
        moves = sum(b.moves * b.frequency for b in ev.blocks.values())
        assert ev.cycles == pytest.approx(cycles)
        assert ev.dynamic_moves == pytest.approx(moves)

    def test_unexecuted_blocks_cost_nothing(self, machine):
        src = """
        int main() {
          int x = 0;
          if (x) { print_int(1); print_int(2); print_int(3); }
          return 0;
        }
        """
        prep = PreparedProgram.from_source(src, "t")
        outcome = run_scheme(prep, machine, "unified")
        dead = [
            b for b in outcome.eval.blocks.values() if b.frequency == 0
        ]
        assert dead  # the guarded block never ran
        assert outcome.cycles > 0


class TestExhaustive:
    def test_small_search(self, prepared, machine):
        result = exhaustive_search(prepared, machine, max_groups=8)
        groups = len(prepared.merge.object_groups())
        assert len(result.points) == 2 ** (groups - 1)
        assert result.best_cycles <= result.worst_cycles

    def test_scheme_point_located(self, prepared, machine):
        gdp = run_scheme(prepared, machine, "gdp")
        result = exhaustive_search(
            prepared, machine, scheme_homes={"gdp": gdp.object_home}
        )
        point = result.scheme_points["gdp"]
        assert result.normalized(point) >= 1.0

    def test_group_limit_enforced(self, prepared, machine):
        with pytest.raises(ValueError, match="exceed max_groups"):
            exhaustive_search(prepared, machine, max_groups=1)

    def test_two_cluster_only(self, prepared):
        from repro.machine import four_cluster_machine

        with pytest.raises(ValueError, match="2 clusters"):
            exhaustive_search(prepared, four_cluster_machine())

    def test_imbalance_range(self, prepared, machine):
        result = exhaustive_search(prepared, machine)
        for p in result.points:
            assert 0.0 <= p.imbalance <= 1.0


class TestReportHelpers:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xxx", 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_bar_chart_contains_values(self):
        text = bar_chart(["x", "y"], {"s": [0.5, 1.0]}, baseline=1.0)
        assert "0.500" in text and "1.000" in text

    def test_scatter_plot_draws(self):
        text = scatter_plot(
            [0.1, 0.5, 0.9], [1.0, 1.1, 1.2], shades=[0.1, 0.5, 0.9],
            marks={"G": (0.5, 1.1)},
        )
        assert "G" in text

    def test_scatter_empty(self):
        assert scatter_plot([], []) == "(no points)"

    def test_means(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert arithmetic_mean([1.0, 3.0]) == 2.0
        assert geomean([]) == 0.0
        assert arithmetic_mean([]) == 0.0


class TestSchemeTable:
    def test_table_complete(self):
        assert set(SCHEME_TABLE) == {"gdp", "profilemax", "naive", "unified"}
        for meta in SCHEME_TABLE.values():
            assert meta["computation_partitioner"] == "RHOP"
