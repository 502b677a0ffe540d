"""Tests for RHOP computation partitioning and intercluster move insertion."""


from repro.analysis import annotate_memory_ops
from repro.ir import Opcode, verify_module
from repro.lang import compile_source
from repro.machine import single_cluster_machine, two_cluster_machine
from repro.partition import (
    RHOP,
    insert_intercluster_moves,
    memory_locks,
)
from repro.profiler import Interpreter

SRC = """
int a[32];
int b[32];
int main() {
  int s = 0;
  for (int i = 0; i < 32; i = i + 1) { a[i] = i * 3; }
  for (int i = 0; i < 32; i = i + 1) { b[i] = a[i] + i; }
  for (int i = 0; i < 32; i = i + 1) { s = s + b[i]; }
  print_int(s);
  return s;
}
"""


def compiled(src=SRC):
    module = compile_source(src, "t")
    annotate_memory_ops(module)
    return module


class TestRHOP:
    def test_every_op_assigned(self):
        module = compiled()
        rhop = RHOP(two_cluster_machine().as_unified())
        result = rhop.partition_module(module)
        for func in module:
            for op in func.operations():
                assert op.uid in result.assignment
                assert result.assignment[op.uid] in (0, 1)

    def test_single_cluster_machine(self):
        module = compiled()
        result = RHOP(single_cluster_machine()).partition_module(module)
        assert set(result.assignment.values()) == {0}

    def test_memory_locks_respected(self):
        module = compiled()
        locks = memory_locks(module, {"g:a": 0, "g:b": 1}, {})
        rhop = RHOP(two_cluster_machine().as_partitioned())
        result = rhop.partition_module(module, mem_locks=locks)
        for uid, cluster in locks.items():
            assert result.assignment[uid] == cluster

    def test_register_homes_recorded(self):
        module = compiled()
        rhop = RHOP(two_cluster_machine().as_unified())
        result = rhop.partition_module(module)
        homes = result.vreg_home["main"]
        assert homes  # loop counters etc. have homes

    def test_same_vreg_defs_colocated_within_block(self):
        """Mandatory groups: defs of one register in a block co-locate."""
        src = """
        int main() {
          int x = 1;
          x = x + 1;
          x = x * 2;
          return x;
        }
        """
        module = compiled(src)
        rhop = RHOP(two_cluster_machine().as_unified())
        result = rhop.partition_module(module)
        func = module.function("main")
        defs_of_x = [
            op for op in func.operations()
            if op.dest is not None and op.dest.name == "x"
        ]
        clusters = {result.assignment[d.uid] for d in defs_of_x}
        assert len(clusters) == 1

    def test_partition_is_deterministic(self):
        m1, m2 = compiled(), compiled()
        rhop = RHOP(two_cluster_machine().as_unified())
        r1 = rhop.partition_module(m1)
        r2 = rhop.partition_module(m2)
        # Compare positionally (uids differ between compilations).
        c1 = [r1.assignment[op.uid] for f in m1 for op in f.operations()]
        c2 = [r2.assignment[op.uid] for f in m2 for op in f.operations()]
        assert c1 == c2

    def test_infeasible_lock_cluster_still_assigns(self):
        # Lock everything to cluster 1; computation must still complete.
        module = compiled()
        locks = memory_locks(module, {"g:a": 1, "g:b": 1}, {})
        rhop = RHOP(two_cluster_machine().as_partitioned())
        result = rhop.partition_module(module, mem_locks=locks)
        assert all(uid in result.assignment
                   for f in module for uid in (op.uid for op in f.operations()))


class TestMoveInsertion:
    def _partition_and_insert(self, module, machine, locks=None):
        rhop = RHOP(machine)
        result = rhop.partition_module(module, mem_locks=locks or {})
        assignment = dict(result.assignment)
        stats = {}
        for func in module:
            homes = result.vreg_home.get(func.name, {})
            param_homes = {
                p.vid: homes[p.vid] for p in func.params if p.vid in homes
            }
            stats[func.name] = insert_intercluster_moves(
                func, assignment, machine, param_homes
            )
        return assignment, stats

    def test_module_still_verifies(self):
        module = compiled()
        machine = two_cluster_machine()
        self._partition_and_insert(module, machine)
        verify_module(module)

    def test_execution_unchanged_after_insertion(self):
        """ICMOVEs are executable copies: the mutated module must compute
        exactly the same results."""
        baseline = Interpreter(compiled()).run()
        module = compiled()
        machine = two_cluster_machine()
        self._partition_and_insert(module, machine)
        interp = Interpreter(module)
        assert interp.run() == baseline

    def test_every_cross_cluster_use_is_local_after_insertion(self):
        module = compiled()
        machine = two_cluster_machine()
        assignment, _ = self._partition_and_insert(module, machine)
        for func in module:
            defs_of = {}
            for op in func.operations():
                if op.dest is not None:
                    defs_of.setdefault(op.dest.vid, set()).add(
                        assignment[op.uid]
                    )
            param_vids = {p.vid for p in func.params}
            for op in func.operations():
                if op.is_icmove():
                    continue
                cu = assignment[op.uid]
                for src in op.register_srcs():
                    clusters = defs_of.get(src.vid, set())
                    if src.vid in param_vids or not clusters:
                        continue
                    assert clusters == {cu}, (
                        f"{func.name}: op {op} on c{cu} reads {src} "
                        f"defined on {clusters}"
                    )

    def test_no_moves_for_single_cluster(self):
        module = compiled()
        machine = single_cluster_machine()
        assignment, stats = self._partition_and_insert(module, machine)
        assert all(s.icmoves == 0 for s in stats.values())
        assert not any(op.is_icmove() for op in module.function("main").operations())

    def test_icmove_attrs(self):
        module = compiled()
        machine = two_cluster_machine()
        locks = memory_locks(module, {"g:a": 0, "g:b": 1}, {})
        assignment, _ = self._partition_and_insert(
            module, machine.as_partitioned(), locks
        )
        for func in module:
            for op in func.operations():
                if op.is_icmove():
                    assert op.attrs["from"] != op.attrs["to"]
                    assert assignment[op.uid] == op.attrs["to"]

    def test_forced_split_creates_moves(self):
        module = compiled()
        machine = two_cluster_machine().as_partitioned()
        locks = memory_locks(module, {"g:a": 0, "g:b": 1}, {})
        assignment, stats = self._partition_and_insert(module, machine, locks)
        # a written on c0, read on c1 to build b: at least one move chain.
        assert stats["main"].icmoves > 0

    def test_execution_correct_with_forced_split(self):
        baseline = Interpreter(compiled()).run()
        module = compiled()
        machine = two_cluster_machine().as_partitioned()
        locks = memory_locks(module, {"g:a": 0, "g:b": 1}, {})
        self._partition_and_insert(module, machine, locks)
        verify_module(module)
        assert Interpreter(module).run() == baseline

    def test_param_moves_inserted_at_entry(self):
        src = """
        int a[16];
        int f(int x, int y) { return x * 2 + y; }
        int main() {
          int s = 0;
          for (int i = 0; i < 16; i = i + 1) { s = s + f(i, a[i]); }
          return s;
        }
        """
        baseline = Interpreter(compiled(src)).run()
        module = compiled(src)
        machine = two_cluster_machine()
        self._partition_and_insert(module, machine)
        verify_module(module)
        assert Interpreter(module).run() == baseline

    def test_mixed_def_cluster_gets_local_copy(self):
        """If defs of one vreg end up on different clusters (possible when
        memory locks conflict with register homes) insertion still yields
        a correct program via local MOV copies."""
        src = """
        int a[8];
        int b[8];
        int main() {
          int v = a[0];
          v = b[0];
          return v;
        }
        """
        baseline = Interpreter(compiled(src)).run()
        module = compiled(src)
        machine = two_cluster_machine().as_partitioned()
        # Force the two loads (both defining temps feeding v) apart.
        locks = memory_locks(module, {"g:a": 0, "g:b": 1}, {})
        rhop = RHOP(machine)
        result = rhop.partition_module(module, mem_locks=locks)
        assignment = dict(result.assignment)
        # Manually force the two MOV-defs of v onto different clusters.
        movs = [
            op
            for op in module.function("main").operations()
            if op.opcode is Opcode.MOV and op.dest is not None
            and op.dest.name == "v"
        ]
        if len(movs) == 2:
            assignment[movs[0].uid] = 0
            assignment[movs[1].uid] = 1
        insert_intercluster_moves(
            module.function("main"), assignment, machine, {}
        )
        verify_module(module)
        assert Interpreter(module).run() == baseline
