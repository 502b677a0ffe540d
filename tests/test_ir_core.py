"""Unit tests for operations, blocks, functions, modules, and cloning."""

import pytest

from repro.ir import (
    BasicBlock,
    Constant,
    Function,
    FunctionRef,
    GlobalAddress,
    GlobalVariable,
    IRBuilder,
    Module,
    OpClass,
    Opcode,
    Operation,
    VirtualRegister,
    clone_function,
    clone_module,
    print_function,
    print_module,
)
from repro.ir.types import FLOAT, INT, ArrayType, PointerType


def make_add_function():
    func = Function("add", [], INT)
    b = IRBuilder(func)
    entry = b.new_block("entry")
    b.set_block(entry)
    x = b.add(b.const(2), b.const(3))
    b.ret(x)
    return func


class TestValues:
    def test_vreg_identity(self):
        a = VirtualRegister(1, INT)
        b = VirtualRegister(1, FLOAT, "other")
        assert a == b  # identity is the vid
        assert hash(a) == hash(b)
        assert a != VirtualRegister(2, INT)

    def test_constant_defaults(self):
        assert Constant(3).ty == INT
        assert Constant(2.5).ty == FLOAT

    def test_constant_equality(self):
        assert Constant(1) == Constant(1)
        assert Constant(1) != Constant(2)
        assert Constant(1) != Constant(1.0, FLOAT)

    def test_global_address(self):
        g = GlobalAddress("tab", ArrayType(INT, 4))
        assert g.ty.is_pointer()
        assert g.symbol == "tab"
        assert g == GlobalAddress("tab", INT)  # symbol-keyed

    def test_function_ref(self):
        assert FunctionRef("f", INT) == FunctionRef("f", FLOAT)
        assert str(FunctionRef("f", INT)) == "@f"


class TestOperations:
    def test_uid_unique(self):
        a = Operation(Opcode.ADD, VirtualRegister(0, INT), [Constant(1), Constant(2)])
        b = Operation(Opcode.ADD, VirtualRegister(0, INT), [Constant(1), Constant(2)])
        assert a.uid != b.uid
        assert a != b

    def test_classification(self):
        load = Operation(Opcode.LOAD, VirtualRegister(0, INT), [Constant(0)])
        assert load.is_memory() and load.is_memory_access()
        malloc = Operation(
            Opcode.MALLOC, VirtualRegister(1, PointerType(INT)), [Constant(8)],
            attrs={"site": "s"},
        )
        assert malloc.is_memory() and not malloc.is_memory_access()
        br = Operation(Opcode.BR, targets=["next"])
        assert br.is_terminator()
        call = Operation(
            Opcode.CALL, None, [FunctionRef("f", INT)], attrs={"callee": "f"}
        )
        assert call.is_call() and not call.is_terminator()
        icm = Operation(Opcode.ICMOVE, VirtualRegister(2, INT), [Constant(1)])
        assert icm.is_icmove()
        assert icm.opclass is OpClass.ICMOVE

    def test_address_operand(self):
        addr = VirtualRegister(9, PointerType(INT))
        load = Operation(Opcode.LOAD, VirtualRegister(0, INT), [addr])
        store = Operation(Opcode.STORE, None, [Constant(1), addr])
        add = Operation(Opcode.ADD, VirtualRegister(1, INT), [Constant(1), Constant(2)])
        assert load.address_operand() is addr
        assert store.address_operand() is addr
        assert add.address_operand() is None

    def test_register_srcs(self):
        v = VirtualRegister(3, INT)
        op = Operation(Opcode.ADD, VirtualRegister(4, INT), [v, Constant(1)])
        assert op.register_srcs() == [v]

    def test_replace_src(self):
        v = VirtualRegister(3, INT)
        w = VirtualRegister(5, INT)
        op = Operation(Opcode.ADD, VirtualRegister(4, INT), [v, v])
        assert op.replace_src(v, w) == 2
        assert op.srcs == [w, w]

    def test_clone_fresh_uid(self):
        op = Operation(Opcode.MOV, VirtualRegister(0, INT), [Constant(1)],
                       attrs={"k": 1})
        dup = op.clone()
        assert dup.uid != op.uid
        assert dup.attrs == op.attrs
        dup.attrs["k"] = 2
        assert op.attrs["k"] == 1

    def test_mem_objects_default_empty(self):
        op = Operation(Opcode.LOAD, VirtualRegister(0, INT), [Constant(0)])
        assert op.mem_objects() == frozenset()


class TestBlocksAndFunctions:
    def test_terminator_detection(self):
        block = BasicBlock("b")
        assert block.terminator is None
        block.append(Operation(Opcode.MOV, VirtualRegister(0, INT), [Constant(1)]))
        assert block.terminator is None
        block.append(Operation(Opcode.BR, targets=["x"]))
        assert block.terminator is not None
        assert block.successors() == ["x"]

    def test_index_of(self):
        block = BasicBlock("b")
        op = block.append(Operation(Opcode.MOV, VirtualRegister(0, INT), [Constant(1)]))
        assert block.index_of(op) == 0
        other = Operation(Opcode.MOV, VirtualRegister(1, INT), [Constant(2)])
        with pytest.raises(ValueError):
            block.index_of(other)

    def test_function_vreg_minting(self):
        p = VirtualRegister(0, INT, "a")
        func = Function("f", [p], INT)
        r1 = func.new_vreg(INT)
        r2 = func.new_vreg(FLOAT)
        assert len({p.vid, r1.vid, r2.vid}) == 3

    def test_function_block_names(self):
        func = Function("f", [], INT)
        b1 = func.add_block()
        b2 = func.add_block()
        assert b1.name != b2.name
        with pytest.raises(ValueError):
            func.add_block(b1.name)

    def test_entry_is_first(self):
        func = Function("f", [], INT)
        first = func.add_block("start")
        func.add_block("later")
        assert func.entry is first

    def test_entry_requires_blocks(self):
        with pytest.raises(ValueError):
            Function("f", [], INT).entry

    def test_operations_iteration_and_count(self):
        func = make_add_function()
        ops = list(func.operations())
        assert func.op_count() == len(ops) == 2
        assert ops[-1].opcode is Opcode.RET


class TestModule:
    def test_globals(self):
        mod = Module("m")
        g = mod.add_global("tab", ArrayType(INT, 4), [1, 2, 3, 4])
        assert g.size() == 16
        with pytest.raises(ValueError):
            mod.add_global("tab", INT)

    def test_functions_and_main(self):
        mod = Module("m")
        with pytest.raises(ValueError):
            mod.main
        func = make_add_function()
        mod.add_function(func)
        with pytest.raises(ValueError):
            mod.add_function(make_add_function())
        assert not mod.has_function("main")
        main = Function("main", [], INT)
        mod.add_function(main)
        assert mod.main is main

    def test_global_address_roundtrip(self):
        mod = Module("m")
        g = mod.add_global("x", INT, 7)
        assert g.address().symbol == "x"


class TestPrinting:
    def test_print_function_contains_ops(self):
        text = print_function(make_add_function())
        assert "func @add" in text
        assert "add 2, 3" in text
        assert "ret" in text

    def test_print_module(self):
        mod = Module("m")
        mod.add_global("x", INT, 1)
        mod.add_function(make_add_function())
        text = print_module(mod)
        assert "global @x" in text and "func @add" in text

    def test_print_with_assignment(self):
        func = make_add_function()
        assignment = {op.uid: 1 for op in func.operations()}
        text = print_function(func, assignment)
        assert "[c1]" in text


class TestCloning:
    def test_clone_function_structure(self):
        func = make_add_function()
        dup, uid_map = clone_function(func)
        assert dup.op_count() == func.op_count()
        assert set(uid_map.keys()) == {op.uid for op in func.operations()}
        for old_op, new_op in zip(func.operations(), dup.operations()):
            assert uid_map[old_op.uid] == new_op.uid
            assert new_op.opcode == old_op.opcode

    def test_clone_is_independent(self):
        func = make_add_function()
        dup, _ = clone_function(func)
        dup.entry.ops.pop()
        assert func.op_count() == 2
        assert dup.op_count() == 1

    def test_clone_module(self):
        mod = Module("m")
        mod.add_global("x", INT, 5)
        mod.add_function(make_add_function())
        dup, uid_map = clone_module(mod)
        assert "x" in dup.globals
        assert dup.function("add").op_count() == 2
        assert len(uid_map) == 2

    def test_clone_preserves_vreg_counter(self):
        func = make_add_function()
        dup, _ = clone_function(func)
        assert dup.new_vreg(INT).vid == func.new_vreg(INT).vid
