"""Tests for the affine address analysis used in memory disambiguation."""

from repro.analysis.affine import (
    Affine,
    AffineAddresses,
    coalesce_intervals,
    intervals_overlap,
)
from repro.ir import Constant, Function, GlobalAddress, IRBuilder, Opcode
from repro.ir.types import FLOAT, INT
from repro.lang import compile_source
from repro.schedule import DependenceGraph


def block_of(src, func="main", index=None):
    module = compile_source(src, "t")
    blocks = list(module.function(func))
    if index is not None:
        return blocks[index]
    # the block with the most memory ops
    return max(blocks, key=lambda b: sum(1 for op in b if op.is_memory_access()))


class TestAffineForms:
    def test_constant(self):
        a = Affine.constant(5)
        assert a.const == 5 and not a.terms

    def test_add_and_negate(self):
        x = Affine.atom("x")
        e = x.add(Affine.constant(4)).add(x)
        assert e.terms == {"x": 2} and e.const == 4
        n = e.negate()
        assert n.terms == {"x": -2} and n.const == -4

    def test_scale(self):
        x = Affine.atom("x")
        e = x.add(Affine.constant(3)).scale(4)
        assert e.terms == {"x": 4} and e.const == 12

    def test_cancellation_drops_terms(self):
        x = Affine.atom("x")
        e = x.add(x.negate())
        assert not e.terms

    def test_same_symbolic(self):
        x, y = Affine.atom("x"), Affine.atom("y")
        assert x.add(Affine.constant(1)).same_symbolic(x.add(Affine.constant(9)))
        assert not x.same_symbolic(y)

    def test_as_constant(self):
        assert Affine.constant(7).as_constant() == 7
        assert Affine.atom("x").as_constant() is None
        x = Affine.atom("x")
        assert x.add(x.negate()).add(Affine.constant(3)).as_constant() == 3


class TestOffsetClassification:
    """The interval helpers the field-sensitive points-to tier uses to
    carve a global into content regions."""

    def test_overlap_predicate(self):
        assert intervals_overlap((0, 8), (4, 12))
        assert intervals_overlap((4, 12), (0, 8))
        assert intervals_overlap((0, 8), (2, 4))  # containment
        # Adjacency is NOT overlap: p[0] and p[1] touch but don't share.
        assert not intervals_overlap((0, 4), (4, 8))
        assert not intervals_overlap((0, 4), (8, 12))
        assert not intervals_overlap((0, 0), (0, 4))  # empty interval

    def test_overlapping_intervals_merge(self):
        assert coalesce_intervals([(0, 8), (4, 12), (20, 24)]) == [
            (0, 12),
            (20, 24),
        ]

    def test_adjacent_intervals_stay_separate(self):
        """Distinct array slots ([0,4) and [4,8)) must remain distinct
        regions or field sensitivity could never split a pointer table."""
        assert coalesce_intervals([(4, 8), (0, 4)]) == [(0, 4), (4, 8)]

    def test_contained_interval_absorbed(self):
        assert coalesce_intervals([(0, 16), (4, 8)]) == [(0, 16)]

    def test_chain_of_overlaps_collapses(self):
        assert coalesce_intervals([(0, 6), (4, 10), (8, 14)]) == [(0, 14)]

    def test_empty_input(self):
        assert coalesce_intervals([]) == []

    def test_ptradd_offsets_recorded(self):
        block = block_of(
            "int t[8]; int main() { t[0] = 1; t[3] = 2; return 0; }"
        )
        aff = AffineAddresses(block)
        from repro.ir import Opcode

        offs = {
            aff.ptradd_offset[op.uid].as_constant()
            for op in block.ops
            if op.opcode is Opcode.PTRADD and op.uid in aff.ptradd_offset
        }
        assert {0, 12} <= offs

    def test_versioned_atom_redefinition_keeps_offsets_apart(self):
        """After ``i = i + 1`` the new version folds into the old atom, so
        the two stores classify to distinct constant offsets — the field
        tier can place them in different regions."""
        src = """
        int t[16];
        int main() {
          int i = 3;
          t[i] = 1;
          i = i + 1;
          t[i] = 2;
          return 0;
        }
        """
        block = block_of(src)
        aff = AffineAddresses(block)
        from repro.ir import Opcode

        stores = [op for op in block.ops if op.opcode is Opcode.STORE]
        a0 = aff.address_of[stores[0].uid]
        a1 = aff.address_of[stores[1].uid]
        assert a0.same_symbolic(a1)
        assert a1.const - a0.const == 4

    def test_redefinition_to_unknown_loses_constant_offset(self):
        src = """
        int t[16];
        int u[4];
        int main() {
          int i = 3;
          t[i] = 1;
          i = u[0];
          t[i] = 2;
          return 0;
        }
        """
        block = block_of(src)
        aff = AffineAddresses(block)
        from repro.ir import Opcode

        stores = [op for op in block.ops if op.opcode is Opcode.STORE]
        a0 = aff.address_of[stores[0].uid]
        a1 = aff.address_of[stores[1].uid]
        # The second store indexes an opaque atom: different symbolic part.
        assert not a0.same_symbolic(a1)
        assert a1.as_constant() is None


class TestDisambiguation:
    def _accesses(self, block):
        aff = AffineAddresses(block)
        memops = [op for op in block.ops if op.is_memory_access()]
        return aff, memops

    def test_distinct_constant_indices_disjoint(self):
        block = block_of("int t[8]; int main() { t[0] = 1; t[1] = 2; return 0; }")
        aff, (s0, s1) = self._accesses(block)
        assert aff.provably_disjoint(s0, s1)

    def test_same_index_not_disjoint(self):
        block = block_of("int t[8]; int main() { t[3] = 1; return t[3]; }")
        aff, (s, l) = self._accesses(block)
        assert not aff.provably_disjoint(s, l)

    def test_symbolic_offset_difference(self):
        src = """
        int t[8];
        int main() {
          int i = 2;
          t[i] = 1;
          t[i + 1] = 2;
          return 0;
        }
        """
        block = block_of(src)
        aff, stores = self._accesses(block)
        assert aff.provably_disjoint(stores[0], stores[1])

    def test_unknown_relation_not_disjoint(self):
        src = """
        int t[8];
        int u[2];
        int main() {
          int i = u[0]; int j = u[1];
          t[i] = 1;
          t[j] = 2;
          return 0;
        }
        """
        # i and j are distinct opaque atoms: cannot prove disjoint.
        block = block_of(src)
        aff, ops = self._accesses(block)
        from repro.ir import Opcode

        stores = [op for op in ops if op.opcode is Opcode.STORE]
        assert not aff.provably_disjoint(stores[0], stores[1])

    def test_constants_propagate_through_movs(self):
        block = block_of(
            "int t[8]; int main() { int i = 1; int j = 2;"
            " t[i] = 1; t[j] = 2; return 0; }"
        )
        aff, stores = self._accesses(block)
        assert aff.provably_disjoint(stores[0], stores[1])

    def test_redefinition_is_versioned(self):
        src = """
        int t[16];
        int main() {
          int i = 3;
          t[i] = 1;
          i = i + 1;
          t[i] = 2;
          return 0;
        }
        """
        block = block_of(src)
        aff, stores = self._accesses(block)
        # t[i] and t[i+1] after folding through the redefinition: disjoint.
        assert aff.provably_disjoint(stores[0], stores[1])

    def test_redefinition_to_unknown_value(self):
        src = """
        int t[16];
        int u[4];
        int main() {
          int i = 3;
          t[i] = 1;
          i = u[0];
          t[i] = 2;
          return 0;
        }
        """
        block = block_of(src)
        aff, ops = self._accesses(block)
        stores = [op for op in ops if op.opcode is Opcode.STORE]
        assert not aff.provably_disjoint(stores[0], stores[1])

    def test_widths_respected_for_floats(self):
        func = Function("f", [], INT)
        b = IRBuilder(func)
        entry = b.new_block("entry")
        b.set_block(entry)
        base = GlobalAddress("ftab", FLOAT)
        a0 = b.ptradd(base, Constant(0, INT))
        a4 = b.ptradd(base, Constant(4, INT))
        a8 = b.ptradd(base, Constant(8, INT))
        s0 = b.store(Constant(1.0, FLOAT), a0)  # bytes [0,8)
        s4 = b.store(Constant(2.0, FLOAT), a4)  # bytes [4,12) overlaps
        s8 = b.store(Constant(3.0, FLOAT), a8)  # bytes [8,16) disjoint from s0
        b.ret(Constant(0, INT))
        aff = AffineAddresses(entry)
        assert not aff.provably_disjoint(s0, s4)
        assert aff.provably_disjoint(s0, s8)

    def test_scaled_index_via_shift(self):
        func = Function("f", [], INT)
        b = IRBuilder(func)
        entry = b.new_block("entry")
        b.set_block(entry)
        base = GlobalAddress("t", INT)
        i = b.mov(Constant(5, INT))
        off = b.shl(i, Constant(2, INT))  # i * 4
        a_i = b.ptradd(base, off)
        s1 = b.store(Constant(1, INT), a_i)
        off2 = b.mul(i, Constant(4, INT))
        a_same = b.ptradd(base, off2)
        s2 = b.store(Constant(2, INT), a_same)
        b.ret(Constant(0, INT))
        aff = AffineAddresses(entry)
        # Same symbolic address: NOT disjoint.
        assert not aff.provably_disjoint(s1, s2)


class TestDepGraphIntegration:
    def test_shift_loop_now_parallel(self):
        """The delayline-shift pattern: t[i] = t[i-1] for adjacent i in one
        block must not serialise through memory edges."""
        src = """
        int t[8];
        int main() {
          int i = 4;
          t[i] = t[i - 1];
          t[i + 1] = t[i - 2];
          return 0;
        }
        """
        module = compile_source(src, "t")
        func = module.function("main")
        from repro.analysis import annotate_memory_ops

        annotate_memory_ops(module)
        block = max(func, key=len)
        graph = DependenceGraph(block, lambda op: 1)
        mem_edges = [e for e in graph.edges if e.kind == "mem"]
        # stores/loads at distinct offsets: only genuinely-needed edges.
        assert len(mem_edges) == 0

    def test_aliasing_accesses_still_ordered(self):
        src = """
        int t[8];
        int main() {
          int i = 3;
          t[i] = 1;
          int r = t[i];
          return r;
        }
        """
        module = compile_source(src, "t")
        from repro.analysis import annotate_memory_ops

        annotate_memory_ops(module)
        func = module.function("main")
        block = max(func, key=len)
        graph = DependenceGraph(block, lambda op: 1)
        mem_edges = [e for e in graph.edges if e.kind == "mem"]
        assert len(mem_edges) >= 1
