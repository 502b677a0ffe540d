"""Tests for the extra literature baselines: BUG and the Terechko-style
global-value placement policies."""

import pytest

from repro.ir import verify_module
from repro.machine import two_cluster_machine
from repro.partition import (
    BUG,
    affinity_homes,
    memory_locks,
    round_robin_homes,
    single_cluster_homes,
    size_balanced_homes,
)
from repro.pipeline import PreparedProgram, finalize_and_evaluate, run_scheme
from repro.profiler import Interpreter

SRC = """
int a[32];
int b[64];
int c[16];
int d;
int main() {
  int s = 0;
  for (int i = 0; i < 32; i = i + 1) { a[i] = i; }
  for (int i = 0; i < 64; i = i + 1) { b[i] = i * 2; }
  for (int i = 0; i < 16; i = i + 1) { c[i] = a[i] + b[i]; }
  for (int i = 0; i < 16; i = i + 1) { s = s + c[i]; }
  d = s;
  print_int(d);
  return s;
}
"""


@pytest.fixture(scope="module")
def prepared():
    return PreparedProgram.from_source(SRC, "t")


@pytest.fixture(scope="module")
def machine():
    return two_cluster_machine(move_latency=5)


class TestBUG:
    def test_assignment_complete(self, prepared, machine):
        module, _ = prepared.fresh_copy()
        result = BUG(machine.as_unified()).partition_module(module)
        for func in module:
            for op in func.operations():
                assert result.assignment[op.uid] in (0, 1)

    def test_locks_respected(self, prepared, machine):
        module, _ = prepared.fresh_copy()
        homes = {o: (0 if o != "g:b" else 1) for o in prepared.objects.ids()}
        locks = memory_locks(module, homes, {})
        result = BUG(machine.as_partitioned()).partition_module(module, locks)
        for uid, cluster in locks.items():
            assert result.assignment[uid] == cluster

    def test_end_to_end_executable(self, prepared, machine):
        baseline = prepared.profile.output
        module, _ = prepared.fresh_copy()
        result = BUG(machine.as_unified()).partition_module(module)
        finalize_and_evaluate(
            prepared, machine, module, result.assignment, result
        )
        verify_module(module)
        interp = Interpreter(module)
        interp.run()
        assert interp.profile.output == baseline

    def test_produces_positive_cycles(self, prepared, machine):
        module, _ = prepared.fresh_copy()
        result = BUG(machine.as_unified()).partition_module(module)
        ev = finalize_and_evaluate(
            prepared, machine, module, result.assignment, result
        )
        assert ev.cycles > 0


class TestGlobalValuePolicies:
    def test_single_cluster_homes(self, prepared):
        homes = single_cluster_homes(prepared.objects, 2)
        assert set(homes.values()) == {0}

    def test_round_robin_spreads(self, prepared):
        homes = round_robin_homes(prepared.objects, 2)
        assert set(homes.values()) == {0, 1}
        counts = [list(homes.values()).count(c) for c in (0, 1)]
        assert abs(counts[0] - counts[1]) <= 1

    def test_size_balanced(self, prepared):
        homes = size_balanced_homes(prepared.objects, 2)
        loads = [0, 0]
        for obj, c in homes.items():
            loads[c] += prepared.objects[obj].size
        total = sum(loads)
        biggest = max(o.size for o in prepared.objects)
        assert max(loads) <= total / 2 + biggest

    def test_affinity_orders_by_traffic(self, prepared):
        counts = prepared.object_access_counts()
        homes = affinity_homes(prepared.objects, counts, 2)
        assert set(homes) == set(prepared.objects.ids())
        # The two hottest objects should land on different clusters.
        hot = sorted(counts, key=counts.get, reverse=True)[:2]
        if len(hot) == 2 and counts[hot[1]] > 0:
            assert homes[hot[0]] != homes[hot[1]]

    @pytest.mark.parametrize(
        "policy",
        [single_cluster_homes, round_robin_homes, size_balanced_homes],
    )
    def test_policies_plug_into_phase2(self, prepared, machine, policy):
        homes = policy(prepared.objects, 2)
        outcome = run_scheme(prepared, machine, "gdp", object_home=homes)
        assert outcome.cycles > 0
        assert outcome.object_home == homes
