"""Engine-based replacement for an ad-hoc lint dataflow traversal.

:func:`must_defined_registers` is a forward must-analysis phrased as a
:class:`DataflowProblem`: the register ids defined on *every* path into
each block (parameters count as defined at entry).  It replaces
``lint.irlint._must_defined_in`` and keeps its exact semantics, including
the corner cases: unreachable blocks report the lattice bottom (the full
universe), and the entry's state stays pinned to the parameter set even
when a back edge targets the entry block.

Register liveness is :class:`repro.analysis.Liveness`, which the
optimizer's dead-code pass and the lint dead-store pass share.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

from .framework import DataflowProblem, SetLattice, solve
from ..cfg import CFG
from ...ir import BasicBlock, Function


def _block_defs(block: BasicBlock) -> Set[int]:
    return {op.dest.vid for op in block.ops if op.dest is not None}


class _MustDefinedProblem(DataflowProblem):
    direction = "forward"
    boundary_is_absolute = True

    def __init__(self, func: Function, universe: FrozenSet[int]):
        super().__init__(SetLattice(universe, must=True))
        self._params = frozenset(p.vid for p in func.params)

    def boundary(self) -> FrozenSet[int]:
        return self._params

    def transfer(self, block: BasicBlock, state: FrozenSet[int]) -> FrozenSet[int]:
        return state | frozenset(_block_defs(block))


def must_defined_registers(func: Function, cfg: CFG) -> Dict[str, Set[int]]:
    """Register ids defined on every path into each block.

    Unreachable blocks report the full universe (nothing can be read
    uninitialised in code that never runs), matching the traversal this
    replaces.
    """
    universe = {p.vid for p in func.params}
    for block in func:
        universe |= _block_defs(block)
    solution = solve(func, cfg, _MustDefinedProblem(func, frozenset(universe)))
    return {name: set(solution.in_of(name)) for name in func.blocks}


__all__ = ["must_defined_registers"]
