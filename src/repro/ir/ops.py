"""Operations: the nodes of the IR.

Every operation has an opcode, at most one destination register, a list of
source values, optional branch targets, and an attribute dictionary used to
carry analysis annotations (e.g. the set of data-object ids a memory
operation may touch, or the call-site id of a ``MALLOC``).

Opcodes are grouped into :class:`OpClass` categories which drive both the
machine resource mapping (which function unit executes the op) and the
analyses (what counts as a memory operation, a branch, ...).
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, List, Optional, Sequence

from .types import IRType
from .values import Constant, Value, VirtualRegister


class OpClass(enum.Enum):
    """Coarse functional category; maps one-to-one onto FU resource classes."""

    INT_ALU = "int"
    FLOAT_ALU = "float"
    MEMORY = "mem"
    BRANCH = "branch"
    ICMOVE = "icmove"  # intercluster move: executes on the shared bus


class Opcode(enum.Enum):
    # Integer arithmetic / logic
    ADD = ("add", OpClass.INT_ALU)
    SUB = ("sub", OpClass.INT_ALU)
    MUL = ("mul", OpClass.INT_ALU)
    DIV = ("div", OpClass.INT_ALU)
    REM = ("rem", OpClass.INT_ALU)
    NEG = ("neg", OpClass.INT_ALU)
    AND = ("and", OpClass.INT_ALU)
    OR = ("or", OpClass.INT_ALU)
    XOR = ("xor", OpClass.INT_ALU)
    NOT = ("not", OpClass.INT_ALU)
    SHL = ("shl", OpClass.INT_ALU)
    SHR = ("shr", OpClass.INT_ALU)
    # Integer comparisons (result is 0/1 in an i32 register)
    CMPEQ = ("cmpeq", OpClass.INT_ALU)
    CMPNE = ("cmpne", OpClass.INT_ALU)
    CMPLT = ("cmplt", OpClass.INT_ALU)
    CMPLE = ("cmple", OpClass.INT_ALU)
    CMPGT = ("cmpgt", OpClass.INT_ALU)
    CMPGE = ("cmpge", OpClass.INT_ALU)
    # Select (conditional move): dest = srcs[0] ? srcs[1] : srcs[2]
    SELECT = ("select", OpClass.INT_ALU)
    # Register copy / immediate materialisation
    MOV = ("mov", OpClass.INT_ALU)
    # Pointer arithmetic: dest = base + byte_offset
    PTRADD = ("ptradd", OpClass.INT_ALU)
    # Floating point
    FADD = ("fadd", OpClass.FLOAT_ALU)
    FSUB = ("fsub", OpClass.FLOAT_ALU)
    FMUL = ("fmul", OpClass.FLOAT_ALU)
    FDIV = ("fdiv", OpClass.FLOAT_ALU)
    FNEG = ("fneg", OpClass.FLOAT_ALU)
    FCMPEQ = ("fcmpeq", OpClass.FLOAT_ALU)
    FCMPNE = ("fcmpne", OpClass.FLOAT_ALU)
    FCMPLT = ("fcmplt", OpClass.FLOAT_ALU)
    FCMPLE = ("fcmple", OpClass.FLOAT_ALU)
    FCMPGT = ("fcmpgt", OpClass.FLOAT_ALU)
    FCMPGE = ("fcmpge", OpClass.FLOAT_ALU)
    ITOF = ("itof", OpClass.FLOAT_ALU)
    FTOI = ("ftoi", OpClass.FLOAT_ALU)
    # Memory
    LOAD = ("load", OpClass.MEMORY)  # dest = *(srcs[0])
    STORE = ("store", OpClass.MEMORY)  # *(srcs[1]) = srcs[0]
    MALLOC = ("malloc", OpClass.MEMORY)  # dest = heap alloc of srcs[0] bytes
    # Control flow
    BR = ("br", OpClass.BRANCH)  # unconditional: targets[0]
    CBR = ("cbr", OpClass.BRANCH)  # srcs[0] != 0 ? targets[0] : targets[1]
    RET = ("ret", OpClass.BRANCH)  # optional srcs[0] return value
    CALL = ("call", OpClass.BRANCH)  # srcs[0]=callee ref, srcs[1:]=args
    # Intercluster communication (inserted by the partitioner)
    ICMOVE = ("icmove", OpClass.ICMOVE)

    def __init__(self, mnemonic: str, opclass: OpClass):
        self.mnemonic = mnemonic
        self.opclass = opclass


#: Comparison opcodes, used by the frontend and constant folder.
INT_COMPARES = {
    Opcode.CMPEQ,
    Opcode.CMPNE,
    Opcode.CMPLT,
    Opcode.CMPLE,
    Opcode.CMPGT,
    Opcode.CMPGE,
}
FLOAT_COMPARES = {
    Opcode.FCMPEQ,
    Opcode.FCMPNE,
    Opcode.FCMPLT,
    Opcode.FCMPLE,
    Opcode.FCMPGT,
    Opcode.FCMPGE,
}

#: Opcodes that terminate a basic block.
TERMINATORS = {Opcode.BR, Opcode.CBR, Opcode.RET}

_op_ids = itertools.count()


def renumber_ops(module) -> None:
    """Re-assign every operation's uid in textual order.

    Optimization passes create operations out of textual order, so a
    freshly compiled module's uids and a serialization round-trip's uids
    (assigned in parse order) can disagree on *relative* order.  Anything
    that tie-breaks on uid — graph partitioners most of all — would then
    produce different results for two semantically identical modules.
    Renumbering in the one canonical order (function, block, index) makes
    uid order a pure function of the module text.  Call only while no
    uid-keyed side tables reference the module (uids key ``__hash__``).
    """
    for func in module:
        for block in func:
            for op in block.ops:
                op.uid = next(_op_ids)


class Operation:
    """A single IR operation.

    Attributes
    ----------
    uid:
        A process-unique integer identity, stable for the life of the
        operation.  Graphs built by the analyses and partitioners key nodes
        on ``uid`` so that operations can be hashed without being frozen.
    opcode, dest, srcs, targets:
        The instruction proper. ``targets`` holds successor block names for
        branches (and is empty otherwise).
    attrs:
        Open annotation dictionary.  Well-known keys:

        ``"callee"``       – symbol name for ``CALL``;
        ``"site"``         – allocation-site id for ``MALLOC``;
        ``"mem_objects"``  – frozenset of data-object ids a ``LOAD``/``STORE``
        may access (filled in by the points-to analysis).
    """

    __slots__ = ("uid", "opcode", "dest", "srcs", "targets", "attrs")

    def __init__(
        self,
        opcode: Opcode,
        dest: Optional[VirtualRegister] = None,
        srcs: Sequence[Value] = (),
        targets: Sequence[str] = (),
        attrs: Optional[Dict] = None,
    ):
        self.uid = next(_op_ids)
        self.opcode = opcode
        self.dest = dest
        self.srcs: List[Value] = list(srcs)
        self.targets: List[str] = list(targets)
        self.attrs: Dict = dict(attrs) if attrs else {}

    # -- classification helpers -------------------------------------------

    @property
    def opclass(self) -> OpClass:
        return self.opcode.opclass

    def is_memory(self) -> bool:
        return self.opcode.opclass is OpClass.MEMORY

    def is_memory_access(self) -> bool:
        """True for operations that read or write data memory (not MALLOC)."""
        return self.opcode in (Opcode.LOAD, Opcode.STORE)

    def is_terminator(self) -> bool:
        return self.opcode in TERMINATORS

    def is_call(self) -> bool:
        return self.opcode is Opcode.CALL

    def is_icmove(self) -> bool:
        return self.opcode is Opcode.ICMOVE

    # -- operand access ----------------------------------------------------

    def register_srcs(self) -> List[VirtualRegister]:
        """The source operands that are virtual registers."""
        return [s for s in self.srcs if isinstance(s, VirtualRegister)]

    def address_operand(self) -> Optional[Value]:
        """The address operand of a LOAD/STORE, else None."""
        if self.opcode is Opcode.LOAD:
            return self.srcs[0]
        if self.opcode is Opcode.STORE:
            return self.srcs[1]
        return None

    def mem_objects(self) -> frozenset:
        """Data-object ids this memory operation may touch (post-analysis)."""
        return self.attrs.get("mem_objects", frozenset())

    def replace_src(self, old: Value, new: Value) -> int:
        """Replace every occurrence of ``old`` in ``srcs``; return count."""
        count = 0
        for i, s in enumerate(self.srcs):
            if s == old:
                self.srcs[i] = new
                count += 1
        return count

    # -- misc ---------------------------------------------------------------

    def clone(self) -> "Operation":
        """A deep-enough copy with a fresh uid (values are shared)."""
        return Operation(
            self.opcode, self.dest, list(self.srcs), list(self.targets), dict(self.attrs)
        )

    def __hash__(self) -> int:
        return hash(self.uid)

    def __eq__(self, other: object) -> bool:
        return self is other

    def __str__(self) -> str:
        parts = []
        if self.dest is not None:
            parts.append(f"{self.dest} = ")
        parts.append(self.opcode.mnemonic)
        if self.srcs:
            parts.append(" " + ", ".join(str(s) for s in self.srcs))
        if self.targets:
            parts.append(" -> " + ", ".join(self.targets))
        extra = []
        if "callee" in self.attrs:
            extra.append(f"callee={self.attrs['callee']}")
        if "site" in self.attrs:
            extra.append(f"site={self.attrs['site']}")
        if "mem_objects" in self.attrs and self.attrs["mem_objects"]:
            objs = ",".join(sorted(str(o) for o in self.attrs["mem_objects"]))
            extra.append(f"objs={{{objs}}}")
        if extra:
            parts.append("  ; " + " ".join(extra))
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<op {self.uid}: {self}>"
