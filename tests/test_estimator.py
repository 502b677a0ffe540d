"""Unit tests for the RHOP schedule estimator."""

import math
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.bench import get as get_bench
from repro.exec import RunConfig
from repro.ir import Constant, Function, IRBuilder, Opcode
from repro.ir.types import INT
from repro.machine import (
    ClusterConfig,
    FUClass,
    InterclusterNetwork,
    Machine,
    four_cluster_machine,
    paper_cluster,
    two_cluster_machine,
)
from repro.partition import Anchor, INFEASIBLE, ScheduleEstimator
from repro.partition.estimator import (
    ESTIMATOR_MOVE_OVERLAP_CAP,
    effective_move_latency,
)
from repro.pipeline import PreparedProgram
from repro.schedule import DependenceGraph


def chain_block(n=4):
    """A serial chain: v0 -> v1 -> ... -> ret."""
    func = Function("f", [], INT)
    b = IRBuilder(func)
    entry = b.new_block("entry")
    b.set_block(entry)
    v = b.mov(b.const(1))
    for _ in range(n - 1):
        v = b.add(v, b.const(1))
    b.ret(v)
    return func, entry


def wide_block(n=8):
    """n independent adds."""
    func = Function("f", [], INT)
    b = IRBuilder(func)
    entry = b.new_block("entry")
    b.set_block(entry)
    for i in range(n):
        b.add(b.const(i), b.const(1))
    b.ret(Constant(0, INT))
    return func, entry


def estimator_for(block, machine=None, anchors=()):
    machine = machine or two_cluster_machine(move_latency=5)
    graph = DependenceGraph(block, machine.latency_of)
    return ScheduleEstimator(graph, machine, anchors), graph


class TestEffectiveLatency:
    def test_capped(self):
        assert effective_move_latency(two_cluster_machine(move_latency=10)) == \
            ESTIMATOR_MOVE_OVERLAP_CAP

    def test_low_latency_uncapped(self):
        assert effective_move_latency(two_cluster_machine(move_latency=1)) == 1


class TestEstimate:
    def test_single_cluster_chain_equals_critical_path(self):
        _, block = chain_block(5)
        est, graph = estimator_for(block)
        cluster_of = {op.uid: 0 for op in block.ops}
        assert est.estimate(cluster_of) == graph.critical_path_length()

    def test_cut_chain_costs_moves(self):
        _, block = chain_block(5)
        est, _ = estimator_for(block)
        same = {op.uid: 0 for op in block.ops}
        alternating = {
            op.uid: i % 2 for i, op in enumerate(block.ops)
        }
        assert est.estimate(alternating) > est.estimate(same)

    def test_wide_block_prefers_split(self):
        """Resource-bound code estimates lower when split across clusters."""
        _, block = wide_block(12)
        est, _ = estimator_for(block)
        together = {op.uid: 0 for op in block.ops}
        split = {op.uid: i % 2 for i, op in enumerate(block.ops)}
        assert est.estimate(split) <= est.estimate(together)

    def test_infeasible_when_no_unit(self):
        func = Function("f", [], INT)
        b = IRBuilder(func)
        entry = b.new_block("entry")
        b.set_block(entry)
        f = b.fadd(b.const(1.0), b.const(2.0))
        b.ret(Constant(0, INT))
        from repro.machine import ClusterConfig, FUClass, InterclusterNetwork, Machine

        no_float = ClusterConfig(
            {FUClass.INT: 2, FUClass.FLOAT: 0, FUClass.MEM: 1, FUClass.BRANCH: 1}
        )
        has_float = ClusterConfig(
            {FUClass.INT: 2, FUClass.FLOAT: 1, FUClass.MEM: 1, FUClass.BRANCH: 1}
        )
        machine = Machine([no_float, has_float], InterclusterNetwork(1))
        est, _ = estimator_for(entry, machine)
        on_bad = {op.uid: 0 for op in entry.ops}
        on_good = {op.uid: 1 for op in entry.ops}
        assert est.estimate(on_bad) == INFEASIBLE
        assert est.estimate(on_good) < INFEASIBLE

    def test_partial_assignment_ignores_unplaced(self):
        _, block = wide_block(6)
        est, _ = estimator_for(block)
        partial = {block.ops[0].uid: 0}
        full = {op.uid: 0 for op in block.ops}
        assert est.estimate(partial) <= est.estimate(full)

    def test_exposed_estimate_charges_full_latency(self):
        _, block = chain_block(5)
        machine = two_cluster_machine(move_latency=10)
        est, _ = estimator_for(block, machine)
        alternating = {op.uid: i % 2 for i, op in enumerate(block.ops)}
        optimistic = est.estimate(alternating)
        exposed = est.estimate(alternating, exposed=True)
        assert exposed > optimistic


class TestAnchors:
    def test_anchor_penalises_wrong_cluster(self):
        _, block = chain_block(3)
        first = block.ops[0]
        anchor = Anchor(("vreg", 99), 1, {first.uid})
        est, _ = estimator_for(block, anchors=[anchor])
        on_home = {op.uid: 1 for op in block.ops}
        off_home = {op.uid: 0 for op in block.ops}
        assert est.estimate(off_home) > est.estimate(on_home)

    def test_anchor_counts_move(self):
        _, block = chain_block(3)
        first = block.ops[0]
        anchor = Anchor(("vreg", 99), 1, {first.uid})
        est, _ = estimator_for(block, anchors=[anchor])
        off_home = {op.uid: 0 for op in block.ops}
        on_home = {op.uid: 1 for op in block.ops}
        assert est.move_count(off_home) == est.move_count(on_home) + 1

    def test_move_count_counts_distinct_pairs(self):
        func = Function("f", [], INT)
        b = IRBuilder(func)
        entry = b.new_block("entry")
        b.set_block(entry)
        v = b.mov(b.const(1))
        u1 = b.add(v, b.const(1))
        u2 = b.add(v, b.const(2))
        b.ret(b.add(u1, u2))
        est, _ = estimator_for(entry)
        # v on c0; both consumers on c1 -> ONE move (value sent once).
        asn = {op.uid: 1 for op in entry.ops}
        asn[entry.ops[0].uid] = 0
        cut_once = est.move_count(asn)
        asn2 = {op.uid: 0 for op in entry.ops}
        assert cut_once == est.move_count(asn2) + 1


# -- differential tests: fused pass vs reference, incremental vs scratch --------


def lopsided_machine():
    """Cluster 0 has no FLOAT and no MEM unit: placing a float or memory op
    there makes the assignment infeasible."""
    poor = ClusterConfig(
        {FUClass.INT: 2, FUClass.FLOAT: 0, FUClass.MEM: 0, FUClass.BRANCH: 1}
    )
    rich = ClusterConfig(
        {FUClass.INT: 2, FUClass.FLOAT: 1, FUClass.MEM: 1, FUClass.BRANCH: 1}
    )
    return Machine([poor, rich], InterclusterNetwork(1))


def slow_exit_machine():
    """Terminators outlast every other op, so the terminator's own start
    time (it waits on every op before it) decides the critical path."""
    slow = {Opcode.BR: 9, Opcode.CBR: 9, Opcode.RET: 9}
    return Machine(
        [paper_cluster("c0"), paper_cluster("c1")], InterclusterNetwork(3),
        latencies=slow,
    )


MACHINES = (
    two_cluster_machine(move_latency=5),
    two_cluster_machine(move_latency=1, bandwidth=2),
    four_cluster_machine(move_latency=10),
    lopsided_machine(),
    slow_exit_machine(),
)


@lru_cache(maxsize=None)
def sample_blocks():
    """Blocks of real benches plus synthetic chain and wide blocks."""
    blocks = [chain_block(7)[1], wide_block(9)[1]]
    for name in ("rawcaudio", "cjpeg", "viterbi"):
        bench = get_bench(name)
        prepared = PreparedProgram.from_source(
            bench.source, name, config=RunConfig(cache="off")
        )
        blocks.extend(
            block for func in prepared.module for block in func if block.ops
        )
    return blocks


def reference_estimate(graph, machine, anchors, cluster_of, exposed=False):
    """The estimate and move count by the definition, over dicts."""
    move_latency = (
        machine.move_latency if exposed else effective_move_latency(machine)
    )
    counts = {}
    for op in graph.ops:
        cls, cluster = machine.fu_class_of(op), cluster_of.get(op.uid)
        if cls is not None and cluster is not None:
            counts[cluster, cls] = counts.get((cluster, cls), 0) + 1
    moves = set()
    for edge in graph.flow_edges():
        cs, cd = cluster_of.get(edge.src), cluster_of.get(edge.dst)
        if cs is not None and cd is not None and cs != cd:
            moves.add((edge.src, cd))
    for anchor in anchors:
        for uid in anchor.use_uids:
            cu = cluster_of.get(uid)
            if cu is not None and cu != anchor.cluster:
                moves.add((anchor.key, cu))
    if any(machine.units(c, cls) == 0 for c, cls in counts):
        return INFEASIBLE, len(moves)
    start, completion = {}, 0
    for op in graph.ops:
        cu = cluster_of.get(op.uid)
        t = 0
        for anchor in anchors:
            if op.uid in anchor.use_uids and cu is not None and cu != anchor.cluster:
                t = max(t, move_latency)
        for edge in graph.preds[op.uid]:
            cs = cluster_of.get(edge.src)
            cut = edge.is_flow() and None not in (cs, cu) and cs != cu
            t = max(t, start[edge.src] + edge.delay + (move_latency if cut else 0))
        start[op.uid] = t
        completion = max(completion, t + machine.latency_of(op))
    res_bound = max(
        [n / machine.units(c, cls) for (c, cls), n in counts.items()], default=0
    )
    bus_bound = len(moves) / machine.network.bandwidth
    estimate = max(completion, math.ceil(res_bound), math.ceil(bus_bound))
    return estimate, len(moves)


@st.composite
def scenarios(draw):
    """A block, a machine, anchors (shared keys, reverse anchors) and a
    complete random assignment."""
    block = draw(st.sampled_from(sample_blocks()))
    machine = draw(st.sampled_from(MACHINES))
    uids = [op.uid for op in block.ops]
    clusters = st.integers(0, machine.num_clusters - 1)
    anchors = [
        Anchor(("vreg", draw(st.integers(0, 1))), draw(clusters),
               draw(st.sets(st.sampled_from(uids), min_size=1, max_size=4)))
        for _ in range(draw(st.integers(0, 3)))
    ]
    anchors += [
        Anchor(("ruse", 7, uid), draw(clusters), {uid})
        for uid in draw(st.sets(st.sampled_from(uids), max_size=3))
    ]
    assignment = dict(zip(uids, draw(st.lists(
        clusters, min_size=len(uids), max_size=len(uids)))))
    graph = DependenceGraph(block, machine.latency_of)
    return graph, machine, anchors, assignment


def snapshot(state):
    return (
        list(state.cluster), list(state.counts), state.infeasible,
        [list(r) for r in state.consumers], [list(r) for r in state.anchor_refs],
        state.moves, list(state.start), list(state.done), list(state.reach),
        state.key,
    )


class TestDifferential:
    @given(scenario=scenarios(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_fused_pass_matches_reference(self, scenario, data):
        graph, machine, anchors, assignment = scenario
        est = ScheduleEstimator(graph, machine, anchors)
        keep = data.draw(st.lists(
            st.booleans(), min_size=len(assignment), max_size=len(assignment)))
        partial = {uid: c for (uid, c), k in zip(assignment.items(), keep) if k}
        for cluster_of in (assignment, partial):
            for exposed in (False, True):
                want = reference_estimate(graph, machine, anchors, cluster_of, exposed)
                assert est.estimate_and_moves(cluster_of, exposed) == want
                assert est.estimate(cluster_of, exposed) == want[0]
            assert est.move_count(cluster_of) == want[1]

    @given(scenario=scenarios(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_incremental_matches_from_scratch(self, scenario, data):
        graph, machine, anchors, assignment = scenario
        est = ScheduleEstimator(graph, machine, anchors)
        state = est.incremental(assignment)
        assert state.key == (est.estimate(assignment), est.move_count(assignment))
        uids = list(assignment)
        for _ in range(data.draw(st.integers(1, 12))):
            members = data.draw(st.sets(
                st.sampled_from(uids), min_size=1, max_size=min(6, len(uids))))
            dst = data.draw(st.integers(0, machine.num_clusters - 1))
            moved = dict(assignment)
            moved.update((uid, dst) for uid in members)
            want = (est.estimate(moved), est.move_count(moved))
            group = est.positions(members)
            before = snapshot(state)
            assert state.trial(group, dst) == want
            assert snapshot(state) == before
            if data.draw(st.booleans()):
                assert state.commit(group, dst) == want
                assignment = moved
                assert state.key == want
                assert state.assignment() == assignment

    def test_incremental_tracks_infeasibility(self):
        """Committing a memory op onto a cluster without a memory unit is
        INFEASIBLE; moving it back restores the feasible estimate."""
        machine = lopsided_machine()
        block = next(
            b for b in sample_blocks()
            if any(op.is_memory_access() for op in b.ops)
        )
        graph = DependenceGraph(block, machine.latency_of)
        est = ScheduleEstimator(graph, machine)
        home = {op.uid: 1 for op in block.ops}
        state = est.incremental(home)
        feasible = state.key
        assert feasible[0] < INFEASIBLE
        mem = next(op.uid for op in block.ops if op.is_memory_access())
        group = est.positions([mem])
        assert state.commit(group, 0)[0] == INFEASIBLE
        assert state.key == est.estimate_and_moves({**home, mem: 0})
        assert state.commit(group, 1) == feasible
