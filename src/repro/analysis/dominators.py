"""Dominator tree construction (Cooper–Harvey–Kennedy iterative algorithm)."""

from __future__ import annotations

from typing import Dict, Optional

from .cfg import CFG


class DominatorTree:
    """Immediate-dominator map for one function's reachable blocks."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.idom: Dict[str, Optional[str]] = {}
        self._compute()

    def _compute(self) -> None:
        rpo = self.cfg.reverse_postorder()
        index = {name: i for i, name in enumerate(rpo)}
        entry = self.cfg.entry
        self.idom = {entry: entry}

        changed = True
        while changed:
            changed = False
            for name in rpo:
                if name == entry:
                    continue
                candidates = [
                    p for p in self.cfg.predecessors(name) if p in self.idom
                ]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for p in candidates[1:]:
                    new_idom = self._intersect(new_idom, p, index)
                if self.idom.get(name) != new_idom:
                    self.idom[name] = new_idom
                    changed = True

    def _intersect(self, a: str, b: str, index: Dict[str, int]) -> str:
        while a != b:
            while index[a] > index[b]:
                a = self.idom[a]
            while index[b] > index[a]:
                b = self.idom[b]
        return a

    # -- queries ---------------------------------------------------------------

    def dominates(self, a: str, b: str) -> bool:
        """True if block ``a`` dominates block ``b`` (reflexive)."""
        node: Optional[str] = b
        while node is not None:
            if node == a:
                return True
            if node == self.cfg.entry:
                return False
            node = self.idom.get(node)
        return False

