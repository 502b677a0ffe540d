"""One lazily filled analysis memo per module: the only place that
chains analyses together.

Every analysis constructor takes what it consumes as a required
argument (the memo itself for CFGs, dominator trees, the call graph and
block affine forms; the upstream analysis it refines), so each is built
at most once per module.  Lint passes share one through
:class:`repro.lint.LintContext` (a subclass) and a
:class:`~repro.pipeline.PreparedProgram` carries one as
``prepared.analyses``.  The memo assumes its module is not mutated once
an analysis has been taken.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional, Tuple, TypeVar

from .affine import AffineAddresses
from .callgraph import CallGraph
from .cfg import CFG
from .dataflow import (
    AccessRegionAnalysis,
    ExecutionBounds,
    IntervalAnalysis,
    must_defined_registers,
)
from .dataflow.interval import never_stored_global_values
from .defuse import DefUse
from .dominators import DominatorTree
from .liveness import Liveness
from .modref import ModRefAnalysis
from .objects import ObjectTable
from .pointsto import PointsToResult, TieredPointsTo
from ..ir import BasicBlock, Function, Module, Operation

T = TypeVar("T")


def op_locations(module: Module) -> Dict[int, Tuple[str, str, Operation]]:
    """Op uid -> (function name, block name, operation)."""
    return {
        op.uid: (func.name, block.name, op)
        for func in module for block in func for op in block.ops
    }


class Analyses:
    """Memoized analyses of ``module``, each built on first request.

    Per-function analyses are keyed by function name, affine forms by
    (function, block), per-tier ones by points-to tier.  A ``tier`` of
    ``None`` takes object sets from the ops' ``mem_objects`` annotations
    instead of a solve: that is what a prepared module (annotated by its
    own tier) and a scheme's transformed clone are analysed under.

    An interval solve depends on the module only through its
    never-stored-globals map, so it is keyed by that map, and so are the
    execution bounds over it: ``intervals`` takes the map from the
    annotations (``const-condition`` depends on that),
    ``execution_bounds(tier)`` from ``tier``'s solve, and equal maps (any
    annotated module under its own tier) share one solve.  Every tier's
    region analysis uses andersen's bounds, whose interval fixpoint
    contains every sharper tier's; the annotations' uses theirs.
    """

    def __init__(self, module: Module):
        self.module = module
        self._memo: Dict[Hashable, object] = {}

    def memo(self, key: Hashable, build: Callable[[], T]) -> T:
        """The value stored under ``key``, calling ``build`` the first time."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]  # type: ignore[return-value]

    def cfg(self, func: Function) -> CFG:
        return self.memo(("cfg", func.name), lambda: CFG(func))

    def dominators(self, func: Function) -> DominatorTree:
        return self.memo(("dom", func.name), lambda: DominatorTree(self.cfg(func)))

    def defuse(self, func: Function) -> DefUse:
        return self.memo(("defuse", func.name), lambda: DefUse(func, self.cfg(func)))

    def live_facts(self, func: Function) -> Liveness:
        return self.memo(("live", func.name), lambda: Liveness(func, self.cfg(func)))

    def must_defined(self, func: Function) -> Dict[str, set]:
        """Block name -> registers defined on *every* path to its entry."""
        return self.memo(("must_defined", func.name),
                         lambda: must_defined_registers(func, self.cfg(func)))

    def callgraph(self) -> CallGraph:
        return self.memo("callgraph", lambda: CallGraph(self.module))

    def affine(self, func: Function, block: BasicBlock) -> AffineAddresses:
        return self.memo(("affine", func.name, block.name),
                         lambda: AffineAddresses(block))

    def pointsto(self, tier: str = "andersen") -> PointsToResult:
        return self.memo(("pointsto", tier), lambda: TieredPointsTo(self, tier))

    def _solve(self, tier: Optional[str]) -> Optional[PointsToResult]:
        """``tier``'s points-to solve; ``None`` for the annotations."""
        return None if tier is None else self.pointsto(tier)

    def _intervals_under(self, tier: Optional[str]) -> IntervalAnalysis:
        const_globals = never_stored_global_values(self.module, self._solve(tier))
        return self.memo(
            ("intervals", frozenset(const_globals.items())),
            lambda: IntervalAnalysis(self, const_globals))

    def intervals(self) -> IntervalAnalysis:
        return self._intervals_under(None)

    def execution_bounds(self, tier: Optional[str] = "andersen") -> ExecutionBounds:
        intervals = self._intervals_under(tier)
        return self.memo(
            ("execution_bounds", frozenset(intervals.const_globals.items())),
            lambda: ExecutionBounds(self, intervals))

    def access_regions(self, tier: Optional[str] = "andersen") -> AccessRegionAnalysis:
        return self.memo(("regions", tier), lambda: AccessRegionAnalysis(
            self, self.execution_bounds(None if tier is None else "andersen"),
            self._solve(tier)))

    def static_profile(self, tier: Optional[str] = "andersen"):
        """Abstract-interpretation access profile (sound static bounds)."""
        # staticprofile imports repro.profiler, which imports this package.
        from .dataflow.staticprofile import build_static_profile

        return self.memo(("static_profile", tier),
                         lambda: build_static_profile(self, tier))

    def modref(self, tier: Optional[str] = "andersen") -> ModRefAnalysis:
        return self.memo(("modref", tier), lambda: ModRefAnalysis(
            self, self.access_regions(tier)))

    def objects(self) -> ObjectTable:
        return self.memo("objects", lambda: ObjectTable(self.module))

    def op_locations(self) -> Dict[int, Tuple[str, str, Operation]]:
        return self.memo("op_locations", lambda: op_locations(self.module))
