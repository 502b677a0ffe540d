"""IRBuilder: a cursor-style convenience API for constructing IR.

The builder keeps a current insertion block and exposes one method per
opcode family.  It is used both by the MiniC lowering pass and directly by
tests and examples that construct IR by hand.

Example
-------
>>> from repro.ir import Module, Function, IRBuilder, INT
>>> mod = Module("demo")
>>> func = Function("main", [], INT)
>>> mod.add_function(func)                              # doctest: +ELLIPSIS
<func main ...>
>>> b = IRBuilder(func)
>>> entry = b.new_block("entry")
>>> b.set_block(entry)
>>> x = b.add(b.const(2), b.const(3))
>>> _ = b.ret(x)
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from .block import BasicBlock
from .function import Function
from .ops import Opcode, Operation
from .types import FLOAT, INT, IRType, PointerType
from .values import Constant, FunctionRef, Value, VirtualRegister


class IRBuilder:
    """Builds operations into a current block of a function."""

    def __init__(self, func: Function):
        self.func = func
        self.block: Optional[BasicBlock] = None

    # -- positioning ---------------------------------------------------------

    def new_block(self, name: Optional[str] = None) -> BasicBlock:
        return self.func.add_block(name)

    def set_block(self, block: BasicBlock) -> None:
        self.block = block

    def _emit(self, op: Operation) -> Operation:
        if self.block is None:
            raise RuntimeError("IRBuilder has no current block")
        if self.block.terminator is not None:
            raise RuntimeError(
                f"emitting into terminated block {self.block.name}"
            )
        self.block.append(op)
        return op

    def _binary(self, opcode: Opcode, lhs: Value, rhs: Value, ty: IRType) -> VirtualRegister:
        dest = self.func.new_vreg(ty)
        self._emit(Operation(opcode, dest, [lhs, rhs]))
        return dest

    def _unary(self, opcode: Opcode, src: Value, ty: IRType) -> VirtualRegister:
        dest = self.func.new_vreg(ty)
        self._emit(Operation(opcode, dest, [src]))
        return dest

    # -- constants -------------------------------------------------------------

    @staticmethod
    def const(value: Union[int, float], ty: Optional[IRType] = None) -> Constant:
        return Constant(value, ty)

    # -- integer arithmetic ------------------------------------------------------

    def add(self, a: Value, b: Value) -> VirtualRegister:
        return self._binary(Opcode.ADD, a, b, INT)

    def sub(self, a: Value, b: Value) -> VirtualRegister:
        return self._binary(Opcode.SUB, a, b, INT)

    def mul(self, a: Value, b: Value) -> VirtualRegister:
        return self._binary(Opcode.MUL, a, b, INT)

    def div(self, a: Value, b: Value) -> VirtualRegister:
        return self._binary(Opcode.DIV, a, b, INT)

    def rem(self, a: Value, b: Value) -> VirtualRegister:
        return self._binary(Opcode.REM, a, b, INT)

    def neg(self, a: Value) -> VirtualRegister:
        return self._unary(Opcode.NEG, a, INT)

    def and_(self, a: Value, b: Value) -> VirtualRegister:
        return self._binary(Opcode.AND, a, b, INT)

    def or_(self, a: Value, b: Value) -> VirtualRegister:
        return self._binary(Opcode.OR, a, b, INT)

    def xor(self, a: Value, b: Value) -> VirtualRegister:
        return self._binary(Opcode.XOR, a, b, INT)

    def not_(self, a: Value) -> VirtualRegister:
        return self._unary(Opcode.NOT, a, INT)

    def shl(self, a: Value, b: Value) -> VirtualRegister:
        return self._binary(Opcode.SHL, a, b, INT)

    def shr(self, a: Value, b: Value) -> VirtualRegister:
        return self._binary(Opcode.SHR, a, b, INT)

    def select(self, cond: Value, if_true: Value, if_false: Value) -> VirtualRegister:
        dest = self.func.new_vreg(if_true.ty)
        self._emit(Operation(Opcode.SELECT, dest, [cond, if_true, if_false]))
        return dest

    # -- comparisons --------------------------------------------------------------

    def cmp(self, kind: str, a: Value, b: Value) -> VirtualRegister:
        """Integer compare; ``kind`` in eq/ne/lt/le/gt/ge."""
        opcode = {
            "eq": Opcode.CMPEQ,
            "ne": Opcode.CMPNE,
            "lt": Opcode.CMPLT,
            "le": Opcode.CMPLE,
            "gt": Opcode.CMPGT,
            "ge": Opcode.CMPGE,
        }[kind]
        return self._binary(opcode, a, b, INT)

    def fcmp(self, kind: str, a: Value, b: Value) -> VirtualRegister:
        """Float compare; result is an i32 truth value."""
        opcode = {
            "eq": Opcode.FCMPEQ,
            "ne": Opcode.FCMPNE,
            "lt": Opcode.FCMPLT,
            "le": Opcode.FCMPLE,
            "gt": Opcode.FCMPGT,
            "ge": Opcode.FCMPGE,
        }[kind]
        return self._binary(opcode, a, b, INT)

    # -- float arithmetic -----------------------------------------------------------

    def fadd(self, a: Value, b: Value) -> VirtualRegister:
        return self._binary(Opcode.FADD, a, b, FLOAT)

    def fsub(self, a: Value, b: Value) -> VirtualRegister:
        return self._binary(Opcode.FSUB, a, b, FLOAT)

    def fmul(self, a: Value, b: Value) -> VirtualRegister:
        return self._binary(Opcode.FMUL, a, b, FLOAT)

    def fdiv(self, a: Value, b: Value) -> VirtualRegister:
        return self._binary(Opcode.FDIV, a, b, FLOAT)

    def fneg(self, a: Value) -> VirtualRegister:
        return self._unary(Opcode.FNEG, a, FLOAT)

    def itof(self, a: Value) -> VirtualRegister:
        return self._unary(Opcode.ITOF, a, FLOAT)

    def ftoi(self, a: Value) -> VirtualRegister:
        return self._unary(Opcode.FTOI, a, INT)

    # -- moves ---------------------------------------------------------------------

    def mov(self, src: Value, name: str = "") -> VirtualRegister:
        dest = self.func.new_vreg(src.ty, name)
        self._emit(Operation(Opcode.MOV, dest, [src]))
        return dest

    def mov_to(self, dest: VirtualRegister, src: Value) -> Operation:
        """Copy into an existing register (used for mutable frontend vars)."""
        return self._emit(Operation(Opcode.MOV, dest, [src]))

    # -- memory -----------------------------------------------------------------------

    def ptradd(
        self, base: Value, offset: Value, result_ty: Optional[IRType] = None
    ) -> VirtualRegister:
        """Pointer plus byte offset.

        ``result_ty`` overrides the result pointer type; lowering uses this
        to decay pointer-to-array bases into pointer-to-element results.
        """
        if not base.ty.is_pointer():
            raise TypeError(f"ptradd base must be a pointer, got {base.ty}")
        dest = self.func.new_vreg(result_ty if result_ty is not None else base.ty)
        self._emit(Operation(Opcode.PTRADD, dest, [base, offset]))
        return dest

    def load(self, addr: Value, ty: Optional[IRType] = None) -> VirtualRegister:
        if ty is None:
            if not isinstance(addr.ty, PointerType):
                raise TypeError(f"load address must be a pointer, got {addr.ty}")
            ty = addr.ty.pointee
        dest = self.func.new_vreg(ty)
        self._emit(Operation(Opcode.LOAD, dest, [addr]))
        return dest

    def store(self, value: Value, addr: Value) -> Operation:
        return self._emit(Operation(Opcode.STORE, None, [value, addr]))

    def malloc(self, size: Value, site: str, pointee: IRType = INT) -> VirtualRegister:
        """Heap allocation; ``site`` is the unique allocation-site id."""
        dest = self.func.new_vreg(PointerType(pointee))
        self._emit(Operation(Opcode.MALLOC, dest, [size], attrs={"site": site}))
        return dest

    # -- control flow --------------------------------------------------------------------

    def br(self, target: BasicBlock) -> Operation:
        return self._emit(Operation(Opcode.BR, targets=[target.name]))

    def cbr(self, cond: Value, if_true: BasicBlock, if_false: BasicBlock) -> Operation:
        return self._emit(
            Operation(Opcode.CBR, srcs=[cond], targets=[if_true.name, if_false.name])
        )

    def ret(self, value: Optional[Value] = None) -> Operation:
        srcs = [] if value is None else [value]
        return self._emit(Operation(Opcode.RET, srcs=srcs))

    def call(
        self,
        callee: str,
        args: Sequence[Value],
        return_type: IRType,
    ) -> Optional[VirtualRegister]:
        """Call a function by symbol name; returns the result register or None."""
        ref = FunctionRef(callee, return_type)
        dest = None
        if return_type.size() > 0:
            dest = self.func.new_vreg(return_type)
        self._emit(
            Operation(
                Opcode.CALL, dest, [ref] + list(args), attrs={"callee": callee}
            )
        )
        return dest
