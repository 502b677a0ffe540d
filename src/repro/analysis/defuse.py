"""Reaching definitions and function-level def-use chains.

The Global Data Partitioner builds a *program-level* data-flow graph whose
edges are definition-to-use flows.  Within a function those flows come from
this analysis: a classic bit-vector-style reaching-definitions solve over
operation uids, followed by a per-block scan matching each register use to
the definitions reaching it.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..ir import Function
from .cfg import CFG


class DefUse:
    """Def-use chains for one function.

    ``edges``      — set of (def_uid, use_uid) pairs over operations;
    ``uses_of``    — def uid -> list of use uids;
    ``defs_for``   — (use_uid, vid) -> list of def uids reaching that use;
    ``param_uses`` — vid of a parameter -> use uids reached by entry value.
    """

    def __init__(self, func: Function, cfg: CFG = None):
        self.func = func
        self.cfg = cfg or CFG(func)
        self.edges: Set[Tuple[int, int]] = set()
        self.uses_of: Dict[int, List[int]] = {}
        self.defs_for: Dict[Tuple[int, int], List[int]] = {}
        self.param_uses: Dict[int, List[int]] = {p.vid: [] for p in func.params}
        self._solve()

    def _solve(self) -> None:
        # Definition points: uid -> vid; plus a pseudo-def per parameter
        # (negative ids -(vid+1) mark entry definitions).
        defs_of_reg: Dict[int, Set[int]] = {}
        def_reg: Dict[int, int] = {}
        for op in self.func.operations():
            if op.dest is not None:
                defs_of_reg.setdefault(op.dest.vid, set()).add(op.uid)
                def_reg[op.uid] = op.dest.vid
        for p in self.func.params:
            pseudo = -(p.vid + 1)
            defs_of_reg.setdefault(p.vid, set()).add(pseudo)
            def_reg[pseudo] = p.vid

        # GEN/KILL per block.
        gen: Dict[str, Set[int]] = {}
        kill: Dict[str, Set[int]] = {}
        for block in self.func:
            g: Set[int] = set()
            k: Set[int] = set()
            for op in block.ops:
                if op.dest is not None:
                    vid = op.dest.vid
                    others = defs_of_reg[vid] - {op.uid}
                    g -= others
                    g.add(op.uid)
                    k |= others
            gen[block.name] = g
            kill[block.name] = k

        entry_name = self.cfg.entry
        reach_in: Dict[str, Set[int]] = {n: set() for n in self.func.blocks}
        reach_out: Dict[str, Set[int]] = {}
        entry_defs = {-(p.vid + 1) for p in self.func.params}
        for name in self.func.blocks:
            seed = entry_defs if name == entry_name else set()
            reach_out[name] = gen[name] | (seed - kill[name])

        order = self.cfg.reverse_postorder()
        changed = True
        while changed:
            changed = False
            for name in order:
                rin: Set[int] = set()
                if name == entry_name:
                    rin |= entry_defs
                for pred in self.cfg.predecessors(name):
                    rin |= reach_out[pred]
                rout = gen[name] | (rin - kill[name])
                if rin != reach_in[name] or rout != reach_out[name]:
                    reach_in[name] = rin
                    reach_out[name] = rout
                    changed = True

        # Walk each block matching uses to the currently-reaching defs.
        for block in self.func:
            current: Dict[int, Set[int]] = {}
            for d in reach_in[block.name]:
                current.setdefault(def_reg[d], set()).add(d)
            for op in block.ops:
                for src in op.register_srcs():
                    reaching = current.get(src.vid, set())
                    self.defs_for[(op.uid, src.vid)] = sorted(reaching)
                    for d in reaching:
                        if d >= 0:
                            self.edges.add((d, op.uid))
                            self.uses_of.setdefault(d, []).append(op.uid)
                        else:
                            vid = def_reg[d]
                            self.param_uses.setdefault(vid, []).append(op.uid)
                if op.dest is not None:
                    current[op.dest.vid] = {op.uid}
