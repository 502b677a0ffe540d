"""Classic backward liveness analysis over virtual registers."""

from __future__ import annotations

from typing import Dict, Set

from ..ir import Function
from .cfg import CFG


class Liveness:
    """Per-block live-in/live-out register id sets."""

    def __init__(self, func: Function, cfg: CFG = None):
        self.func = func
        self.cfg = cfg or CFG(func)
        self.use: Dict[str, Set[int]] = {}
        self.defs: Dict[str, Set[int]] = {}
        self.live_in: Dict[str, Set[int]] = {}
        self.live_out: Dict[str, Set[int]] = {}
        self._compute_local()
        self._solve()

    def _compute_local(self) -> None:
        for block in self.func:
            use: Set[int] = set()
            defs: Set[int] = set()
            for op in block.ops:
                for src in op.register_srcs():
                    if src.vid not in defs:
                        use.add(src.vid)
                if op.dest is not None:
                    defs.add(op.dest.vid)
            self.use[block.name] = use
            self.defs[block.name] = defs

    def _solve(self) -> None:
        names = list(self.func.blocks)
        self.live_in = {n: set() for n in names}
        self.live_out = {n: set() for n in names}
        order = self.cfg.postorder()  # forward order for a backward problem
        changed = True
        while changed:
            changed = False
            for name in order:
                out: Set[int] = set()
                for succ in self.cfg.successors(name):
                    out |= self.live_in[succ]
                new_in = self.use[name] | (out - self.defs[name])
                if out != self.live_out[name] or new_in != self.live_in[name]:
                    self.live_out[name] = out
                    self.live_in[name] = new_in
                    changed = True

    # -- queries --------------------------------------------------------------

    def live_across(self, vid: int) -> bool:
        """True if the register is live across any block boundary."""
        return any(vid in live for live in self.live_out.values())

    def live_out_of(self, block: str) -> Set[int]:
        return self.live_out.get(block, set())
