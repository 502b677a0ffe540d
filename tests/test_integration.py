"""End-to-end integration tests on real benchmarks.

These check the properties the paper's evaluation depends on, on a small
subset of the suite so the test run stays fast (the full-suite versions
live in benchmarks/).
"""

import textwrap

import pytest

import repro
from repro.bench import get
from repro.evalmodel import exhaustive_search
from repro.exec import RunConfig
from repro.exec.artifacts import stable_op_keys
from repro.ir import verify_module
from repro.machine import two_cluster_machine
from repro.pipeline import Pipeline, PreparedProgram, run_scheme
from repro.profiler import Interpreter
from repro.resilience import RunReport


@pytest.fixture(scope="module")
def rawcaudio():
    bench = get("rawcaudio")
    return PreparedProgram.from_source(bench.source, bench.name)


@pytest.fixture(scope="module")
def outcomes(rawcaudio):
    pipe = Pipeline(RunConfig(latency=5, cache="off"))
    return pipe.run_all(rawcaudio)


class TestEndToEnd:
    def test_all_schemes_complete(self, outcomes):
        assert set(outcomes) == {"unified", "gdp", "profilemax", "naive"}
        for outcome in outcomes.values():
            assert outcome.cycles > 0

    def test_partitioned_modules_verify(self, outcomes):
        for outcome in outcomes.values():
            verify_module(outcome.module)

    def test_partitioned_modules_still_execute_correctly(
        self, rawcaudio, outcomes
    ):
        """The strongest whole-pipeline check: after partitioning and move
        insertion, every scheme's module still computes the benchmark's
        exact output."""
        for name, outcome in outcomes.items():
            interp = Interpreter(outcome.module)
            interp.run()
            assert interp.profile.output == rawcaudio.profile.output, name

    def test_assignments_cover_all_ops(self, outcomes):
        for outcome in outcomes.values():
            for func in outcome.module:
                for op in func.operations():
                    assert op.uid in outcome.assignment

    def test_memory_ops_locked_to_homes(self, outcomes):
        for name in ("gdp", "profilemax"):
            outcome = outcomes[name]
            for func in outcome.module:
                for op in func.operations():
                    if op.is_memory_access() and op.mem_objects():
                        homes = {
                            outcome.object_home[o]
                            for o in op.mem_objects()
                            if o in outcome.object_home
                        }
                        if len(homes) == 1:
                            assert outcome.assignment[op.uid] in homes, name

    def test_unified_is_strong_baseline(self, outcomes):
        """Partitioned-memory schemes stay within a sane band of unified
        (the paper's Figure 8 band is roughly [0.6, 1.2])."""
        base = outcomes["unified"].cycles
        for name in ("gdp", "profilemax", "naive"):
            rel = base / outcomes[name].cycles
            assert 0.4 < rel < 1.6, (name, rel)

    def test_gdp_not_dominated(self, outcomes):
        """GDP should be at least competitive with Naive on this benchmark
        (paper Figure 8 vs Figure 2)."""
        assert outcomes["gdp"].cycles <= outcomes["naive"].cycles * 1.25

    def test_latency_1_near_parity(self, rawcaudio):
        pipe = Pipeline(RunConfig(latency=1, cache="off"))
        rel = pipe.compare(rawcaudio, schemes=("gdp",))
        assert rel["gdp"] > 0.85

    def test_dynamic_moves_counted(self, outcomes):
        # Partitioned schemes move data; the counter must see some traffic
        # on at least one scheme.
        total = sum(o.dynamic_moves for o in outcomes.values())
        assert total > 0


class TestExhaustiveIntegration:
    def test_gdp_choice_in_enumerated_space(self, rawcaudio):
        machine = two_cluster_machine(move_latency=5)
        pipe = Pipeline(RunConfig(cache="off"), machine=machine)
        gdp = pipe.run(rawcaudio, "gdp")
        result = exhaustive_search(
            rawcaudio, machine, scheme_homes={"gdp": gdp.object_home}
        )
        point = result.scheme_points["gdp"]
        # GDP's mapping performs above the median of the space.
        better_than = sum(1 for p in result.points if point.cycles <= p.cycles)
        assert better_than >= len(result.points) // 2

    def test_search_has_spread(self, rawcaudio):
        machine = two_cluster_machine(move_latency=5)
        result = exhaustive_search(rawcaudio, machine)
        assert result.best_improvement() > 1.01


class TestCompileTimeStory:
    def test_profilemax_costs_two_rhop_runs(self, rawcaudio):
        pipe = Pipeline(RunConfig(latency=5, cache="off"))
        gdp = pipe.run(rawcaudio, "gdp")
        pmax = pipe.run(rawcaudio, "profilemax")
        assert pmax.rhop_runs == 2 * gdp.rhop_runs
        # Wall-clock: two runs should not be cheaper than one.
        assert pmax.rhop_seconds > gdp.rhop_seconds * 0.8


class TestOneDriver:
    """The driver adds caching and the ladder, never a different answer."""

    @staticmethod
    def _cells(outcome):
        keys = stable_op_keys(outcome.module)
        assignment = {
            keys[uid]: cluster
            for uid, cluster in outcome.assignment.items() if uid in keys
        }
        return outcome.cycles, outcome.dynamic_moves, assignment

    @pytest.mark.parametrize("scheme", ["gdp", "profilemax", "naive", "unified"])
    def test_matches_run_scheme_cold_and_warm(self, rawcaudio, scheme, tmp_path):
        bench = get("rawcaudio")
        expected = self._cells(
            run_scheme(rawcaudio, two_cluster_machine(move_latency=5), scheme)
        )
        one_rung = RunConfig(cache="off", fallback=False, retries=0)
        assert self._cells(Pipeline(one_rung).run(rawcaudio, scheme)) == expected

        cached = one_rung.replace(cache="on", cache_dir=str(tmp_path))
        for status in ("miss", "hit"):
            pipe = Pipeline(cached)
            report = RunReport()
            prepared = pipe.prepare(bench.source, bench.name, report)
            outcome = pipe.run(prepared, scheme, report)
            assert ("outcome", status) in [
                (e["cache"], e["status"]) for e in report.cache_events()
            ]
            assert self._cells(outcome) == expected

    def test_package_docstring_example_runs(self, capsys):
        example = textwrap.dedent(repro.__doc__.split("::\n", 1)[1])
        source = "int g[4]; int main() { g[1] = 3; print_int(g[1]); return 0; }"
        exec(example, {"MINIC_SOURCE": source})
        assert float(capsys.readouterr().out) > 0
