"""Tests for the machine model, dependence graphs, and the list scheduler."""

import pytest

from repro.ir import Constant, Function, GlobalAddress, IRBuilder, Opcode, Operation
from repro.ir.types import INT
from repro.machine import (
    FUClass,
    InterclusterNetwork,
    Machine,
    four_cluster_machine,
    heterogeneous_machine,
    paper_cluster,
    single_cluster_machine,
    two_cluster_machine,
)
from repro.schedule import DependenceGraph, ListScheduler


class TestMachineModel:
    def test_paper_cluster_counts(self):
        c = paper_cluster()
        assert c.units(FUClass.INT) == 2
        assert c.units(FUClass.FLOAT) == 1
        assert c.units(FUClass.MEM) == 1
        assert c.units(FUClass.BRANCH) == 1

    def test_two_cluster_preset(self):
        m = two_cluster_machine(move_latency=5)
        assert m.num_clusters == 2
        assert m.move_latency == 5
        assert not m.unified_memory

    def test_four_cluster_preset(self):
        assert four_cluster_machine().num_clusters == 4

    def test_single_cluster(self):
        m = single_cluster_machine()
        assert m.num_clusters == 1 and m.unified_memory

    def test_heterogeneous(self):
        m = heterogeneous_machine()
        assert m.units(0, FUClass.INT) == 4
        assert m.units(1, FUClass.INT) == 2

    def test_with_move_latency(self):
        m = two_cluster_machine(move_latency=5)
        m2 = m.with_move_latency(10)
        assert m2.move_latency == 10 and m.move_latency == 5

    def test_unified_partitioned_views(self):
        m = two_cluster_machine()
        assert m.as_unified().unified_memory
        assert not m.as_unified().as_partitioned().unified_memory

    def test_latencies(self):
        m = two_cluster_machine(move_latency=7)
        load = Operation(Opcode.LOAD, None, [Constant(0)])
        add = Operation(Opcode.ADD, None, [Constant(1), Constant(2)])
        mul = Operation(Opcode.MUL, None, [Constant(1), Constant(2)])
        fadd = Operation(Opcode.FADD, None, [Constant(1.0), Constant(2.0)])
        icm = Operation(Opcode.ICMOVE, None, [Constant(1)])
        assert m.latency_of(load) == 2
        assert m.latency_of(add) == 1
        assert m.latency_of(mul) == 3
        assert m.latency_of(fadd) == 4
        assert m.latency_of(icm) == 7

    def test_fu_class_mapping(self):
        m = two_cluster_machine()
        assert m.fu_class_of(Operation(Opcode.ADD, None, [])) is FUClass.INT
        assert m.fu_class_of(Operation(Opcode.FMUL, None, [])) is FUClass.FLOAT
        assert m.fu_class_of(Operation(Opcode.LOAD, None, [])) is FUClass.MEM
        assert m.fu_class_of(Operation(Opcode.BR, None, [])) is FUClass.BRANCH
        assert m.fu_class_of(Operation(Opcode.ICMOVE, None, [])) is None

    def test_network_validation(self):
        with pytest.raises(ValueError):
            InterclusterNetwork(-1)
        with pytest.raises(ValueError):
            InterclusterNetwork(1, 0)

    def test_machine_needs_clusters(self):
        with pytest.raises(ValueError):
            Machine([], InterclusterNetwork(1))


def build_block(builder_fn):
    """Run builder_fn(b) in a fresh function; return (func, entry block)."""
    func = Function("f", [], INT)
    b = IRBuilder(func)
    entry = b.new_block("entry")
    b.set_block(entry)
    builder_fn(b)
    if entry.terminator is None:
        b.ret(Constant(0, INT))
    return func, entry


class TestDependenceGraph:
    def test_flow_edges(self):
        def body(b):
            x = b.add(b.const(1), b.const(2))
            y = b.mul(x, b.const(3))
            b.ret(y)

        _, block = build_block(body)
        g = DependenceGraph(block, lambda op: 1)
        flows = [e for e in g.edges if e.kind == "flow"]
        # add->mul and mul->ret
        assert len(flows) == 2

    def test_anti_and_output_edges(self):
        def body(b):
            v = b.func.new_vreg(INT, "v")
            b.mov_to(v, b.const(1))
            u = b.add(v, b.const(1))  # use of v
            b.mov_to(v, b.const(2))  # redefinition: anti from use, output

        _, block = build_block(body)
        g = DependenceGraph(block, lambda op: 1)
        kinds = {e.kind for e in g.edges}
        assert "anti" in kinds and "output" in kinds

    def test_memory_ordering_conservative(self):
        def body(b):
            p = b.malloc(b.const(8), "s")
            b.store(b.const(1), p)
            b.load(p)

        _, block = build_block(body)
        g = DependenceGraph(block, lambda op: 2)
        mem = [e for e in g.edges if e.kind == "mem"]
        assert len(mem) >= 1  # store -> load (same address)

    def test_call_barrier(self):
        def body(b):
            g = GlobalAddress("g", INT)
            b.store(b.const(1), g)
            b.call("print_int", [b.const(1)], INT)
            b.load(g)

        _, block = build_block(body)
        graph = DependenceGraph(block, lambda op: 1)
        call_edges = [e for e in graph.edges if e.kind == "call"]
        assert len(call_edges) >= 2  # store->call and call->load

    def test_terminator_ordered_last(self):
        def body(b):
            b.add(b.const(1), b.const(2))

        _, block = build_block(body)
        g = DependenceGraph(block, lambda op: 1)
        term_uid = block.ops[-1].uid
        order_edges = [e for e in g.edges if e.dst == term_uid]
        assert len(order_edges) >= 1

    def test_asap_alap_slack(self):
        def body(b):
            x = b.add(b.const(1), b.const(2))       # cp head
            y = b.mul(x, b.const(3))                # serial after x
            z = b.add(b.const(4), b.const(5))       # parallel
            b.ret(b.add(y, z))

        _, block = build_block(body)
        g = DependenceGraph(block, lambda op: {
            Opcode.MUL: 3}.get(op.opcode, 1))
        asap = g.asap()
        alap = g.alap()
        for uid in asap:
            assert asap[uid] <= alap[uid]
        # The independent add has positive slack on its edge.
        slacks = [g.slack(e) for e in g.flow_edges()]
        assert any(s > 0 for s in slacks)
        assert any(s == 0 for s in slacks)  # critical path edges

    def test_height_monotone(self):
        def body(b):
            x = b.add(b.const(1), b.const(2))
            y = b.mul(x, b.const(3))
            b.ret(y)

        _, block = build_block(body)
        g = DependenceGraph(block, lambda op: 1)
        first, second = block.ops[0], block.ops[1]
        assert g.height(first.uid) > g.height(second.uid)

    def test_critical_path_length(self):
        def body(b):
            x = b.add(b.const(1), b.const(2))
            y = b.mul(x, b.const(3))
            b.ret(y)

        _, block = build_block(body)
        g = DependenceGraph(
            block, lambda op: {Opcode.MUL: 3}.get(op.opcode, 1)
        )
        assert g.critical_path_length() == 1 + 3 + 1  # add, mul, ret


class TestListScheduler:
    def schedule(self, body_fn, machine=None, clusters=None):
        machine = machine or two_cluster_machine(move_latency=5)
        func, block = build_block(body_fn)
        cluster_of = {}
        for i, op in enumerate(block.ops):
            if clusters is None:
                cluster_of[op.uid] = 0
            else:
                cluster_of[op.uid] = clusters[i]
        sched = ListScheduler(machine).schedule_block(block, cluster_of)
        return sched, block

    def test_dependences_respected(self):
        def body(b):
            x = b.add(b.const(1), b.const(2))
            y = b.mul(x, b.const(3))
            b.ret(y)

        sched, block = self.schedule(body)
        add, mul, ret = block.ops
        assert sched.issue_cycle[mul.uid] >= sched.issue_cycle[add.uid] + 1
        assert sched.issue_cycle[ret.uid] >= sched.issue_cycle[mul.uid] + 3

    def test_int_unit_limit_two_per_cluster(self):
        def body(b):
            for _ in range(6):
                b.add(b.const(1), b.const(2))

        sched, block = self.schedule(body)
        by_cycle = {}
        for op in block.ops[:-1]:
            by_cycle.setdefault(sched.issue_cycle[op.uid], 0)
            by_cycle[sched.issue_cycle[op.uid]] += 1
        assert max(by_cycle.values()) <= 2  # 2 INT units on cluster 0
        assert sched.length >= 3

    def test_two_clusters_double_throughput(self):
        def body(b):
            for _ in range(8):
                b.add(b.const(1), b.const(2))

        one, _ = self.schedule(body, clusters=[0] * 9)
        both, _ = self.schedule(body, clusters=[0, 1] * 4 + [0])
        assert both.length < one.length

    def test_memory_unit_limit(self):
        def body(b):
            g = GlobalAddress("g", INT)
            for _ in range(4):
                b.load(g)

        sched, block = self.schedule(body)
        cycles = sorted(
            sched.issue_cycle[op.uid]
            for op in block.ops
            if op.opcode is Opcode.LOAD
        )
        assert len(set(cycles)) == 4  # 1 mem unit: one load per cycle

    def test_bus_bandwidth_one_per_cycle(self):
        def body(b):
            for _ in range(3):
                v = b.mov(b.const(1))
                icm = Operation(
                    Opcode.ICMOVE, b.func.new_vreg(INT), [v],
                    attrs={"from": 0, "to": 1},
                )
                b.block.append(icm)

        sched, block = self.schedule(body)
        moves = [op for op in block.ops if op.is_icmove()]
        cycles = sorted(sched.issue_cycle[m.uid] for m in moves)
        assert len(set(cycles)) == 3
        assert sched.move_count == 3

    def test_icmove_latency_respected(self):
        machine = two_cluster_machine(move_latency=10)

        def body(b):
            v = b.mov(b.const(1))
            icm = Operation(
                Opcode.ICMOVE, b.func.new_vreg(INT), [v],
                attrs={"from": 0, "to": 1},
            )
            b.block.append(icm)
            b.add(icm.dest, b.const(1))

        sched, block = self.schedule(body, machine=machine, clusters=[0, 0, 1, 1])
        mov, icm, add, _ret = block.ops
        assert sched.issue_cycle[add.uid] >= sched.issue_cycle[icm.uid] + 10

    def test_length_counts_latency_drain(self):
        def body(b):
            x = b.fadd(b.const(1.0), b.const(2.0))  # latency 4
            b.ret(Constant(0, INT))

        sched, _ = self.schedule(body)
        assert sched.length >= 4

    def test_empty_block(self):
        func = Function("f", [], INT)
        block = func.add_block("empty")
        sched = ListScheduler(two_cluster_machine()).schedule_block(block, {})
        assert sched.length == 0

    def test_missing_assignment_raises(self):
        def body(b):
            b.add(b.const(1), b.const(2))

        func, block = build_block(body)
        with pytest.raises(KeyError):
            ListScheduler(two_cluster_machine()).schedule_block(block, {})

    def test_schedule_deterministic(self):
        def body(b):
            for i in range(10):
                b.add(b.const(i), b.const(1))

        s1, _ = self.schedule(body)
        s2, _ = self.schedule(body)
        assert s1.length == s2.length
