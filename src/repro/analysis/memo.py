"""One lazily filled analysis memo per module.

Lint passes share one through :class:`repro.lint.LintContext` (a
subclass) and a :class:`~repro.pipeline.PreparedProgram` carries one as
``prepared.analyses`` (the roofline model lives there).  The memo
assumes its module is not mutated once an analysis has been taken.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Tuple, TypeVar

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
from .pointsto import PointsToResult, solve_pointsto
from ..ir import Function, Module, Operation

T = TypeVar("T")


def op_locations(module: Module) -> Dict[int, Tuple[str, str, Operation]]:
    """Op uid -> (function name, block name, operation)."""
    return {
        op.uid: (func.name, block.name, op)
        for func in module for block in func for op in block.ops
    }


class Analyses:
    """Memoized analyses of ``module``, each built on first request.

    Per-function analyses are keyed by function name, per-tier ones by
    points-to tier.  ``execution_bounds`` is solved once under andersen:
    its interval fixpoint contains every sharper tier's, so it serves
    all tiers' region analyses and the static profile.  An interval
    solve depends on the module only through its never-stored-globals
    map, so it is keyed by that map: ``intervals`` takes the map from
    the module's annotations (``const-condition`` depends on that),
    ``execution_bounds`` from andersen's solution, and when the two maps
    are equal (any annotated module) both share one solve.
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

    def _intervals_under(self, pointsto) -> IntervalAnalysis:
        """The interval solve whose never-stored globals come from
        ``pointsto`` (``None``: the ops' annotations)."""
        const_globals = never_stored_global_values(self.module, pointsto)
        return self.memo(
            ("intervals", frozenset(const_globals.items())),
            lambda: IntervalAnalysis(self.module, pointsto=pointsto))

    def intervals(self) -> IntervalAnalysis:
        return self._intervals_under(None)

    def pointsto(self, tier: str = "andersen") -> PointsToResult:
        return self.memo(("pointsto", tier), lambda: solve_pointsto(self.module, tier))

    def execution_bounds(self) -> ExecutionBounds:
        return self.memo("execution_bounds", lambda: ExecutionBounds(
            self.module, intervals=self._intervals_under(self.pointsto())))

    def static_profile(self):
        """Abstract-interpretation access profile (sound static bounds)."""
        # staticprofile imports repro.profiler, which imports this package.
        from .dataflow.staticprofile import build_static_profile

        return self.memo("static_profile", lambda: build_static_profile(
            self.module, pointsto=self.pointsto(),
            bounds=self.execution_bounds()))

    def access_regions(self, tier: str = "andersen") -> AccessRegionAnalysis:
        return self.memo(("regions", tier), lambda: AccessRegionAnalysis(
            self.module, pointsto=self.pointsto(tier),
            bounds=self.execution_bounds()))

    def modref(self, tier: str = "andersen") -> ModRefAnalysis:
        return self.memo(("modref", tier), lambda: ModRefAnalysis(
            self.module, pointsto=self.pointsto(tier),
            regions=self.access_regions(tier)))

    def objects(self) -> ObjectTable:
        return self.memo("objects", lambda: ObjectTable(self.module))

    def op_locations(self) -> Dict[int, Tuple[str, str, Operation]]:
        return self.memo("op_locations", lambda: op_locations(self.module))
