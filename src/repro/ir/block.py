"""Basic blocks: straight-line operation sequences ending in a terminator."""

from __future__ import annotations

from typing import Iterator, List, Optional

from .ops import Operation


class BasicBlock:
    """A named, ordered list of operations.

    The last operation must be a terminator (``BR``/``CBR``/``RET``) for
    the block to verify.  ``CALL`` is *not* a terminator in this IR: calls
    appear mid-block and fall through.
    """

    def __init__(self, name: str):
        self.name = name
        self.ops: List[Operation] = []

    def append(self, op: Operation) -> Operation:
        self.ops.append(op)
        return op

    def insert(self, index: int, op: Operation) -> Operation:
        self.ops.insert(index, op)
        return op

    def remove(self, op: Operation) -> None:
        self.ops.remove(op)

    @property
    def terminator(self) -> Optional[Operation]:
        """The final operation if it is a terminator, else ``None``."""
        if self.ops and self.ops[-1].is_terminator():
            return self.ops[-1]
        return None

    def successors(self) -> List[str]:
        """Names of successor blocks (empty for returns / unterminated)."""
        term = self.terminator
        if term is None:
            return []
        return list(term.targets)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __str__(self) -> str:
        lines = [f"{self.name}:"]
        lines.extend(f"  {op}" for op in self.ops)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<block {self.name} [{len(self.ops)} ops]>"
