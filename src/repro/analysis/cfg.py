"""Control-flow graph utilities over :class:`repro.ir.Function`.

The IR stores successor names on terminators; this module materialises the
predecessor map and standard traversal orders used by the dataflow
analyses.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..ir import Function


class CFG:
    """Successor/predecessor maps plus traversal orders for one function."""

    def __init__(self, func: Function):
        self.func = func
        self.succs: Dict[str, List[str]] = {}
        self.preds: Dict[str, List[str]] = {}
        for block in func:
            self.succs[block.name] = block.successors()
            self.preds.setdefault(block.name, [])
        for name, targets in self.succs.items():
            for target in targets:
                self.preds.setdefault(target, []).append(name)

    @property
    def entry(self) -> str:
        return self.func.entry.name

    def successors(self, name: str) -> List[str]:
        return self.succs.get(name, [])

    def predecessors(self, name: str) -> List[str]:
        return self.preds.get(name, [])

    def postorder(self) -> List[str]:
        """Postorder over reachable blocks (iterative DFS)."""
        seen: Set[str] = set()
        order: List[str] = []
        stack: List[tuple] = [(self.entry, iter(self.successors(self.entry)))]
        seen.add(self.entry)
        while stack:
            name, child_iter = stack[-1]
            advanced = False
            for child in child_iter:
                if child not in seen:
                    seen.add(child)
                    stack.append((child, iter(self.successors(child))))
                    advanced = True
                    break
            if not advanced:
                order.append(name)
                stack.pop()
        return order

    def reverse_postorder(self) -> List[str]:
        """Reverse postorder — the canonical forward-dataflow ordering."""
        return list(reversed(self.postorder()))

    def reachable(self) -> Set[str]:
        return set(self.postorder())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<cfg {self.func.name}: {len(self.succs)} blocks>"
