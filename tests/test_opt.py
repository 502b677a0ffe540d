"""Tests for the scalar optimizer: folding, copy-prop, CSE, DCE."""

import pytest

from repro.analysis.cfg import CFG
from repro.ir import Constant, Function, IRBuilder, Opcode, verify_function
from repro.ir.types import INT
from repro.lang import compile_source
from repro.opt import (
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fold_constants,
    optimize_module,
    propagate_copies,
)
from repro.profiler import Interpreter


def fresh_block():
    func = Function("f", [], INT)
    b = IRBuilder(func)
    entry = b.new_block("entry")
    b.set_block(entry)
    return func, b, entry


def opcodes(block):
    return [op.opcode for op in block.ops]


class TestConstFold:
    def test_folds_arithmetic(self):
        func, b, entry = fresh_block()
        x = b.add(b.const(2), b.const(3))
        y = b.mul(x, b.const(4))
        b.ret(y)
        fold_constants(func)
        movs = [op for op in entry.ops if op.opcode is Opcode.MOV]
        assert len(movs) == 2
        assert movs[-1].srcs[0] == Constant(20, INT)

    def test_propagates_within_block(self):
        func, b, entry = fresh_block()
        x = b.mov(b.const(7))
        y = b.add(x, b.const(1))
        b.ret(y)
        fold_constants(func)
        ret = entry.ops[-1]
        add_result = entry.ops[1]
        assert add_result.opcode is Opcode.MOV
        assert add_result.srcs[0] == Constant(8, INT)

    def test_keeps_division_by_zero(self):
        func, b, entry = fresh_block()
        d = b.div(b.const(1), b.const(0))
        b.ret(d)
        fold_constants(func)
        assert entry.ops[0].opcode is Opcode.DIV

    def test_identities(self):
        func, b, entry = fresh_block()
        v = b.mov(b.const(5))
        a = b.add(v, b.const(0))
        m = b.mul(a, b.const(1))
        z = b.mul(m, b.const(0))
        b.ret(z)
        n = fold_constants(func)
        assert n > 0
        assert entry.ops[-1].srcs[0] == Constant(0, INT)

    def test_select_on_constant(self):
        func, b, entry = fresh_block()
        s = b.select(b.const(1), b.const(10), b.const(20))
        b.ret(s)
        fold_constants(func)
        assert entry.ops[0].opcode is Opcode.MOV
        assert entry.ops[0].srcs[0] == Constant(10, INT)

    def test_comparison_folds(self):
        func, b, entry = fresh_block()
        c = b.cmp("lt", b.const(2), b.const(5))
        b.ret(c)
        fold_constants(func)
        assert entry.ops[0].srcs[0] == Constant(1, INT)


class TestCopyPropagation:
    def test_simple_chain(self):
        func, b, entry = fresh_block()
        x = b.add(b.const(1), b.const(2))
        y = b.mov(x)
        z = b.add(y, b.const(3))
        b.ret(z)
        n = propagate_copies(func)
        assert n >= 1
        add2 = entry.ops[2]
        assert add2.srcs[0] == x

    def test_invalidated_by_redefinition(self):
        func, b, entry = fresh_block()
        x = func.new_vreg(INT, "x")
        b.mov_to(x, b.const(1))
        y = b.mov(x)
        b.mov_to(x, b.const(2))  # x redefined: copy y=x no longer usable...
        z = b.add(y, b.const(0))  # ...so z must still read y
        b.ret(z)
        propagate_copies(func)
        add = entry.ops[3]
        assert add.srcs[0] == y


class TestCSE:
    def test_duplicate_address_arithmetic(self):
        func, b, entry = fresh_block()
        i = b.mov(b.const(3))
        a1 = b.mul(i, b.const(4))
        a2 = b.mul(i, b.const(4))
        b.ret(b.add(a1, a2))
        n = eliminate_common_subexpressions(func)
        assert n == 1
        assert entry.ops[2].opcode is Opcode.MOV

    def test_not_merged_across_redefinition(self):
        func, b, entry = fresh_block()
        i = func.new_vreg(INT, "i")
        b.mov_to(i, b.const(3))
        a1 = b.mul(i, b.const(4))
        b.mov_to(i, b.const(5))
        a2 = b.mul(i, b.const(4))  # different i: must stay a MUL
        b.ret(b.add(a1, a2))
        eliminate_common_subexpressions(func)
        muls = [op for op in entry.ops if op.opcode is Opcode.MUL]
        assert len(muls) == 2

    def test_clobbered_result_not_reused(self):
        func, b, entry = fresh_block()
        x = func.new_vreg(INT, "x")
        i = b.mov(b.const(3))
        entry.append(  # x = i * 4
            __import__("repro.ir", fromlist=["Operation"]).Operation(
                Opcode.MUL, x, [i, Constant(4, INT)]
            )
        )
        b.mov_to(x, b.const(0))  # clobber x
        a2 = b.mul(i, b.const(4))  # same expression, but x is stale
        b.ret(a2)
        eliminate_common_subexpressions(func)
        muls = [op for op in entry.ops if op.opcode is Opcode.MUL]
        assert len(muls) == 2

    def test_loads_never_cse(self):
        func, b, entry = fresh_block()
        p = b.malloc(b.const(8), "s")
        l1 = b.load(p)
        l2 = b.load(p)
        b.ret(b.add(l1, l2))
        assert eliminate_common_subexpressions(func) == 0


class TestDCE:
    def test_removes_unused_pure_op(self):
        func, b, entry = fresh_block()
        b.add(b.const(1), b.const(2))  # dead
        live = b.add(b.const(3), b.const(4))
        b.ret(live)
        removed = eliminate_dead_code(func)
        assert removed == 1
        assert len(entry.ops) == 2

    def test_removes_transitively_dead_chains(self):
        func, b, entry = fresh_block()
        x = b.add(b.const(1), b.const(2))
        y = b.mul(x, b.const(3))  # y dead -> x dead too
        b.ret(b.const(0))
        removed = eliminate_dead_code(func)
        assert removed == 2

    def test_removes_dead_chain_across_blocks(self):
        # z is dead; removing it kills y in the block before, then x in
        # the entry: each step needs liveness re-solved across a boundary.
        for pass_cfg in (False, True):
            func, b, entry = fresh_block()
            mid, tail = b.new_block("mid"), b.new_block("tail")
            x = b.add(b.const(1), b.const(2))
            b.br(mid)
            b.set_block(mid)
            y = b.mul(x, b.const(3))
            b.br(tail)
            b.set_block(tail)
            b.add(y, b.const(1))
            b.ret(b.const(0))
            cfg = CFG(func) if pass_cfg else None
            assert eliminate_dead_code(func, cfg) == 3
            assert [opcodes(blk) for blk in (entry, mid, tail)] == [
                [Opcode.BR], [Opcode.BR], [Opcode.RET]]

    def test_keeps_stores_and_calls(self):
        func, b, entry = fresh_block()
        p = b.malloc(b.const(8), "s")
        b.store(b.const(1), p)
        b.call("print_int", [b.const(1)], INT)
        b.ret(b.const(0))
        assert eliminate_dead_code(func) == 0

    def test_keeps_faulting_ops(self):
        func, b, entry = fresh_block()
        z = b.mov(b.const(0))
        b.div(b.const(1), z)  # dead result, but may fault: keep
        b.ret(b.const(0))
        eliminate_dead_code(func)
        assert any(op.opcode is Opcode.DIV for op in entry.ops)

    def test_cross_block_liveness_respected(self):
        src = """
        int main() {
          int x = 5;
          int y = x * 2;
          if (x) { return y; }
          return 0;
        }
        """
        module = compile_source(src, "t")
        before = Interpreter(compile_source(src, "t")).run()
        optimize_module(module)
        verify_function(module.function("main"))
        assert Interpreter(module).run() == before


class TestEndToEnd:
    SRC = """
    int t[16];
    int main() {
      int s = 0;
      for (int i = 0; i < 16; i = i + 1) {
        t[i] = t[i] + i * 3;
        s = s + t[i];
      }
      print_int(s);
      return s;
    }
    """

    def test_semantics_preserved(self):
        baseline = Interpreter(compile_source(self.SRC, "a")).run()
        module = compile_source(self.SRC, "b", unroll_factor=4, if_convert=True)
        optimize_module(module)
        assert Interpreter(module).run() == baseline

    def test_reduces_op_count(self):
        module = compile_source(self.SRC, "t", unroll_factor=4)
        before = module.op_count()
        optimize_module(module)
        assert module.op_count() < before

    def test_idempotent_at_fixed_point(self):
        module = compile_source(self.SRC, "t")
        optimize_module(module)
        assert optimize_module(module) == 0

    def test_verifies_after_optimization(self):
        from repro.ir import verify_module

        module = compile_source(self.SRC, "t", unroll_factor=4, if_convert=True)
        optimize_module(module)
        verify_module(module)
