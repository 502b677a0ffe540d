"""Constant folding and algebraic simplification.

Folds operations whose sources are all constants, and simplifies the
common algebraic identities lowering tends to emit (``x + 0``, ``x * 1``,
``x * 0``, shifts by zero, selects on constant conditions).  Constants
are propagated through registers within each block (the environment resets
at block boundaries — sound without SSA).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ir import Constant, Function, Opcode, Operation, VirtualRegister
from ..ir.types import FLOAT, INT
from ..profiler.interp import _HANDLERS


def fold_constants(func: Function) -> int:
    """Fold/simplify in place; returns the number of rewrites."""
    changed = 0
    for block in func:
        consts: Dict[int, Constant] = {}
        for op in block.ops:
            for i, src in enumerate(list(op.srcs)):
                if isinstance(src, VirtualRegister) and src.vid in consts:
                    op.srcs[i] = consts[src.vid]
                    changed += 1
            folded = _fold_op(op)
            if folded is not None:
                op.opcode = Opcode.MOV
                op.srcs = [folded]
                changed += 1
            elif _simplify(op):
                changed += 1
            if op.dest is not None:
                if op.opcode is Opcode.MOV and isinstance(op.srcs[0], Constant):
                    consts[op.dest.vid] = op.srcs[0]
                else:
                    consts.pop(op.dest.vid, None)
    return changed


#: Opcodes safe to evaluate at compile time with the interpreter handlers.
_FOLDABLE = set(_HANDLERS) - {Opcode.PTRADD, Opcode.SELECT}


def _fold_op(op: Operation) -> Optional[Constant]:
    """A constant replacing the op's result, or None."""
    if op.dest is None or op.opcode not in _FOLDABLE:
        return None
    if not all(isinstance(s, Constant) for s in op.srcs):
        return None
    if op.opcode in (Opcode.DIV, Opcode.REM) and op.srcs[1].value == 0:
        return None  # keep the faulting op
    if op.opcode is Opcode.FDIV and op.srcs[1].value == 0.0:
        return None
    value = _HANDLERS[op.opcode](*[s.value for s in op.srcs])
    if op.dest.ty.is_float():
        return Constant(float(value), FLOAT)
    return Constant(value, FLOAT if isinstance(value, float) else INT)


def _simplify(op: Operation) -> bool:
    """Algebraic identities; returns True if the op was rewritten."""
    oc = op.opcode
    if op.dest is None:
        return False

    def to_mov(src) -> bool:
        op.opcode = Opcode.MOV
        op.srcs = [src]
        return True

    if oc is Opcode.SELECT and isinstance(op.srcs[0], Constant):
        return to_mov(op.srcs[1] if op.srcs[0].value != 0 else op.srcs[2])
    if oc in (Opcode.ADD, Opcode.SUB, Opcode.SHL, Opcode.SHR, Opcode.OR,
              Opcode.XOR):
        if isinstance(op.srcs[1], Constant) and op.srcs[1].value == 0:
            return to_mov(op.srcs[0])
    if oc is Opcode.ADD and isinstance(op.srcs[0], Constant) and op.srcs[0].value == 0:
        return to_mov(op.srcs[1])
    if oc is Opcode.MUL:
        for i in (0, 1):
            if isinstance(op.srcs[i], Constant):
                if op.srcs[i].value == 1:
                    return to_mov(op.srcs[1 - i])
                if op.srcs[i].value == 0:
                    return to_mov(Constant(0, INT))
    if (
        oc is Opcode.PTRADD
        and isinstance(op.srcs[1], Constant)
        and op.srcs[1].value == 0
    ):
        return to_mov(op.srcs[0])
    return False
