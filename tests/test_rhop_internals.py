"""White-box tests for RHOP internals: region ordering, anchors,
reverse anchors, and coarsening."""

from repro.analysis import annotate_memory_ops
from repro.analysis.cfg import CFG
from repro.lang import compile_source
from repro.machine import two_cluster_machine
from repro.partition import RHOP
from repro.partition.rhop import RHOPResult


def compiled(src):
    module = compile_source(src, "t")
    annotate_memory_ops(module)
    return module


LOOPY = """
int a[16];
int main() {
  int s = 0;
  for (int i = 0; i < 16; i = i + 1) { s = s + a[i]; }
  return s;
}
"""


class TestRegionOrder:
    def test_hottest_block_first_with_profile(self):
        module = compiled(LOOPY)
        func = module.function("main")
        freqs = {}
        for block in func:
            freqs[block.name] = 100.0 if "bb1" in block.name else 1.0
        rhop = RHOP(
            two_cluster_machine().as_unified(),
            block_freq=lambda f, b: freqs.get(b, 1.0),
        )
        order = rhop._region_order(func, CFG(func))
        assert order[0] == "bb1"

    def test_static_fallback_prefers_loops(self):
        module = compiled(LOOPY)
        func = module.function("main")
        rhop = RHOP(two_cluster_machine().as_unified())
        order = rhop._region_order(func, CFG(func))
        # The entry block (depth 0) must not come first: loop blocks do.
        assert order[0] != "entry"

    def test_order_covers_all_blocks(self):
        module = compiled(LOOPY)
        func = module.function("main")
        rhop = RHOP(two_cluster_machine().as_unified())
        order = rhop._region_order(func, CFG(func))
        assert set(order) == set(func.blocks)


class TestAnchors:
    def test_external_values_become_anchors(self):
        module = compiled(LOOPY)
        func = module.function("main")
        rhop = RHOP(two_cluster_machine().as_unified())
        # Pretend register 0 (s) lives on cluster 1.
        loop_block = None
        for block in func:
            for op in block.ops:
                for src in op.register_srcs():
                    defined_here = any(
                        o.dest is not None and o.dest.vid == src.vid
                        for o in block.ops[: block.index_of(op)]
                    )
                    if not defined_here:
                        loop_block = block
                        external_vid = src.vid
                        break
                if loop_block:
                    break
            if loop_block:
                break
        anchors = rhop._block_anchors(func, loop_block, {external_vid: 1})
        assert any(a.cluster == 1 for a in anchors)

    def test_unhomed_values_make_no_anchor(self):
        module = compiled(LOOPY)
        func = module.function("main")
        rhop = RHOP(two_cluster_machine().as_unified())
        block = func.entry
        assert rhop._block_anchors(func, block, {}) == []


class TestReverseAnchors:
    def test_pending_uses_recorded(self):
        module = compiled(LOOPY)
        func = module.function("main")
        rhop = RHOP(two_cluster_machine().as_unified())
        pending = {}
        block = max(func, key=len)
        cluster_of = {op.uid: 1 for op in block.ops}
        rhop._record_pending_uses(block, cluster_of, pending)
        assert pending, "external uses should be recorded"
        assert all(1 in per for per in pending.values())

    def test_reverse_anchor_points_at_majority_cluster(self):
        module = compiled(LOOPY)
        func = module.function("main")
        rhop = RHOP(two_cluster_machine().as_unified())
        entry = func.entry
        defined = [op for op in entry.ops if op.dest is not None]
        assert defined
        vid = defined[0].dest.vid
        pending = {vid: {1: 5.0, 0: 1.0}}
        anchors = rhop._reverse_anchors(entry, {}, pending)
        target = [a for a in anchors if a.key[1] == vid]
        assert target and target[0].cluster == 1

    def test_homed_register_gets_no_reverse_anchor(self):
        module = compiled(LOOPY)
        func = module.function("main")
        rhop = RHOP(two_cluster_machine().as_unified())
        entry = func.entry
        defined = [op for op in entry.ops if op.dest is not None]
        vid = defined[0].dest.vid
        anchors = rhop._reverse_anchors(
            entry, {vid: 0}, {vid: {1: 5.0}}
        )
        assert not any(a.key[1] == vid for a in anchors)


class TestGlobalPasses:
    def test_full_use_map_counts(self):
        module = compiled(LOOPY)
        func = module.function("main")
        rhop = RHOP(two_cluster_machine().as_unified())
        result = rhop.partition_function(func)
        use_map = rhop._full_use_map(func, result.assignment)
        assert use_map
        for per in use_map.values():
            assert all(c in (0, 1) for c in per)


class TestCoarsening:
    def test_levels_shrink(self):
        from repro.schedule import DependenceGraph

        module = compiled(LOOPY)
        func = module.function("main")
        machine = two_cluster_machine()
        rhop = RHOP(machine)
        block = max(func, key=len)
        graph = DependenceGraph(block, machine.latency_of)
        base = rhop._mandatory_groups(block, {})
        levels = rhop._coarsen(graph, base, {})
        sizes = [len(level) for level in levels]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == len(base)

    def test_groups_partition_ops(self):
        module = compiled(LOOPY)
        func = module.function("main")
        machine = two_cluster_machine()
        rhop = RHOP(machine)
        block = max(func, key=len)
        groups = rhop._mandatory_groups(block, {})
        all_ops = set()
        for members in groups.values():
            assert not (all_ops & members)
            all_ops |= members
        assert all_ops == {op.uid for op in block.ops}
