"""Functions: parameterised CFGs of basic blocks."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from .block import BasicBlock
from .ops import Operation
from .types import IRType, VOID
from .values import VirtualRegister


class Function:
    """A function: ordered blocks, parameter registers, and a return type.

    Blocks are stored in insertion order; the first block is the entry.
    Virtual-register numbering is function-local and managed here so that
    passes can mint fresh registers without collisions.
    """

    def __init__(self, name: str, params: List[VirtualRegister], return_type: IRType = VOID):
        self.name = name
        self.params = list(params)
        self.return_type = return_type
        self.blocks: Dict[str, BasicBlock] = {}
        self._next_vreg = max((p.vid for p in params), default=-1) + 1
        self._next_block = 0

    # -- structure ----------------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return next(iter(self.blocks.values()))

    def add_block(self, name: Optional[str] = None) -> BasicBlock:
        if name is None:
            name = f"bb{self._next_block}"
            self._next_block += 1
        if name in self.blocks:
            raise ValueError(f"duplicate block name {name!r} in {self.name}")
        block = BasicBlock(name)
        self.blocks[name] = block
        return block

    def block(self, name: str) -> BasicBlock:
        return self.blocks[name]

    def remove_block(self, name: str) -> None:
        del self.blocks[name]

    def new_vreg(self, ty: IRType, name: str = "") -> VirtualRegister:
        """Mint a fresh virtual register unique within this function."""
        reg = VirtualRegister(self._next_vreg, ty, name)
        self._next_vreg += 1
        return reg

    # -- iteration ----------------------------------------------------------

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks.values())

    def operations(self) -> Iterator[Operation]:
        """All operations of the function, in block order."""
        for block in self.blocks.values():
            yield from block.ops

    def op_count(self) -> int:
        return sum(len(b) for b in self.blocks.values())

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        params = ", ".join(f"{p}: {p.ty}" for p in self.params)
        lines = [f"func @{self.name}({params}) -> {self.return_type} {{"]
        for block in self.blocks.values():
            lines.append(str(block))
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<func {self.name} [{len(self.blocks)} blocks, {self.op_count()} ops]>"
