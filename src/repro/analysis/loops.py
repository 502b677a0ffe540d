"""Natural loop detection from dominator-identified back edges.

Loop nesting depth feeds the static block-frequency estimator used when no
profile is available (10^depth weighting, the classic compiler heuristic).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .cfg import CFG
from .dominators import DominatorTree

#: Heuristic trip count of one loop level: a block at depth ``d`` is
#: estimated to run ``LOOP_WEIGHT ** d`` times.
LOOP_WEIGHT = 10.0


class Loop:
    """A natural loop: a header plus the body blocks reaching it."""

    def __init__(self, header: str, body: Set[str]):
        self.header = header
        self.body = body  # includes the header
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []

    @property
    def depth(self) -> int:
        depth = 1
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def contains(self, block: str) -> bool:
        return block in self.body

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<loop header={self.header} blocks={len(self.body)}>"


class LoopInfo:
    """All natural loops of a function with nesting structure."""

    def __init__(self, cfg: CFG, domtree: Optional[DominatorTree] = None):
        self.cfg = cfg
        self.domtree = domtree or DominatorTree(cfg)
        self.loops: List[Loop] = []
        self._depth: Dict[str, int] = {}
        self._find_loops()
        self._nest_loops()
        self._compute_depths()

    def _find_loops(self) -> None:
        by_header: Dict[str, Set[str]] = {}
        for src in self.cfg.reachable():
            for dst in self.cfg.successors(src):
                if self.domtree.dominates(dst, src):
                    by_header.setdefault(dst, set()).update(
                        self._loop_body(dst, src)
                    )
        for header, body in by_header.items():
            self.loops.append(Loop(header, body))

    def _loop_body(self, header: str, latch: str) -> Set[str]:
        body = {header, latch}
        work = [latch]
        while work:
            node = work.pop()
            if node == header:
                continue
            for pred in self.cfg.predecessors(node):
                if pred not in body:
                    body.add(pred)
                    work.append(pred)
        return body

    def _nest_loops(self) -> None:
        # Smaller loops nest inside larger loops containing their header.
        ordered = sorted(self.loops, key=lambda l: len(l.body))
        for i, inner in enumerate(ordered):
            for outer in ordered[i + 1 :]:
                if inner.header in outer.body and inner is not outer:
                    inner.parent = outer
                    outer.children.append(inner)
                    break

    def _compute_depths(self) -> None:
        for name in self.cfg.reachable():
            depth = 0
            for loop in self.loops:
                if loop.contains(name):
                    depth = max(depth, loop.depth)
            self._depth[name] = depth

    # -- queries --------------------------------------------------------------

    def depth_of(self, block: str) -> int:
        """Loop nesting depth of a block (0 = not in any loop)."""
        return self._depth.get(block, 0)

    def static_frequency(self, block: str) -> float:
        """Heuristic execution frequency: ``LOOP_WEIGHT ** depth``."""
        return LOOP_WEIGHT ** self.depth_of(block)
