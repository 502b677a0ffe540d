"""The lint driver: pass registry, shared analysis context, and runner.

A lint pass is a small class with a ``name``, a ``description``, and a
``run(ctx)`` generator yielding :class:`Diagnostic` values.  Passes share
one :class:`LintContext` per module so the underlying analyses (CFG,
def-use, liveness, points-to, object table) are computed at most once
regardless of how many passes consume them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Type

from ..analysis.cfg import CFG
from ..analysis.dataflow import IntervalAnalysis, must_defined_registers
from ..analysis.defuse import DefUse
from ..analysis.dominators import DominatorTree
from ..analysis.liveness import Liveness
from ..analysis.loops import LoopInfo
from ..analysis.objects import ObjectTable
from ..analysis.pointsto import PointsToResult, solve_pointsto
from ..ir import Function, Module
from ..machine import Machine
from .diagnostics import Diagnostic, DiagnosticReport


class LintContext:
    """Per-module analysis cache handed to every lint pass.

    ``profile`` is an optional :class:`repro.profiler.ProfileData`
    gathered by interpreting *this very module instance* — the refinement
    differ uses it as a dynamic under-approximation oracle (op uids must
    match, so a profile of any other module copy would be meaningless).
    """

    def __init__(
        self,
        module: Module,
        machine: Optional[Machine] = None,
        profile=None,
    ):
        self.module = module
        self.machine = machine
        self.profile = profile
        self._cfg: Dict[str, CFG] = {}
        self._dom: Dict[str, DominatorTree] = {}
        self._defuse: Dict[str, DefUse] = {}
        self._loops: Dict[str, LoopInfo] = {}
        self._live_facts: Dict[str, Liveness] = {}
        self._must_defined: Dict[str, Dict[str, set]] = {}
        self._pointsto: Dict[str, PointsToResult] = {}
        self._objects: Optional[ObjectTable] = None
        self._intervals: Optional[IntervalAnalysis] = None
        self._static_profile = None
        self._execution_bounds = None
        self._access_regions: Dict[str, object] = {}
        self._modref: Dict[str, object] = {}

    def cfg(self, func: Function) -> CFG:
        if func.name not in self._cfg:
            self._cfg[func.name] = CFG(func)
        return self._cfg[func.name]

    def dominators(self, func: Function) -> DominatorTree:
        if func.name not in self._dom:
            self._dom[func.name] = DominatorTree(self.cfg(func))
        return self._dom[func.name]

    def defuse(self, func: Function) -> DefUse:
        if func.name not in self._defuse:
            self._defuse[func.name] = DefUse(func, self.cfg(func))
        return self._defuse[func.name]

    def loops(self, func: Function) -> LoopInfo:
        if func.name not in self._loops:
            self._loops[func.name] = LoopInfo(
                self.cfg(func), self.dominators(func)
            )
        return self._loops[func.name]

    def live_facts(self, func: Function) -> Liveness:
        """Per-block register liveness (the analysis DCE also uses)."""
        if func.name not in self._live_facts:
            self._live_facts[func.name] = Liveness(func, self.cfg(func))
        return self._live_facts[func.name]

    def must_defined(self, func: Function) -> Dict[str, set]:
        """Block name -> registers defined on *every* path to its entry."""
        if func.name not in self._must_defined:
            self._must_defined[func.name] = must_defined_registers(
                func, self.cfg(func)
            )
        return self._must_defined[func.name]

    def intervals(self) -> IntervalAnalysis:
        """Module-wide interprocedural value-range analysis."""
        if self._intervals is None:
            self._intervals = IntervalAnalysis(self.module)
        return self._intervals

    def pointsto(self, tier: str = "andersen") -> PointsToResult:
        if tier not in self._pointsto:
            self._pointsto[tier] = solve_pointsto(self.module, tier)
        return self._pointsto[tier]

    def static_profile(self):
        """Abstract-interpretation access profile (sound static bounds)."""
        if self._static_profile is None:
            from ..analysis.dataflow.staticprofile import (
                build_static_profile,
            )

            self._static_profile = build_static_profile(
                self.module, pointsto=self.pointsto()
            )
        return self._static_profile

    def execution_bounds(self):
        """Whole-program block execution bounds (shared across tiers —
        the interval fixpoint under the coarsest tier contains every
        sharper tier's, so one solve serves all region analyses)."""
        if self._execution_bounds is None:
            from ..analysis.dataflow.regions import ExecutionBounds

            self._execution_bounds = ExecutionBounds(
                self.module, pointsto=self.pointsto()
            )
        return self._execution_bounds

    def access_regions(self, tier: str = "andersen"):
        """Per-op static byte regions under one points-to tier."""
        if tier not in self._access_regions:
            from ..analysis.dataflow.regions import AccessRegionAnalysis

            self._access_regions[tier] = AccessRegionAnalysis(
                self.module,
                pointsto=self.pointsto(tier),
                bounds=self.execution_bounds(),
            )
        return self._access_regions[tier]

    def modref(self, tier: str = "andersen"):
        """Interprocedural region-level MOD/REF summaries under one
        points-to tier, computed once per context across all passes."""
        if tier not in self._modref:
            from ..analysis.modref import ModRefAnalysis

            self._modref[tier] = ModRefAnalysis(
                self.module,
                pointsto=self.pointsto(tier),
                regions=self.access_regions(tier),
            )
        return self._modref[tier]

    def objects(self) -> ObjectTable:
        if self._objects is None:
            self._objects = ObjectTable(self.module)
        return self._objects


class LintPass:
    """Base class for lint passes.  Subclasses set ``name`` (the rule-id
    prefix shown in reports) and implement :meth:`run`."""

    name: str = ""
    description: str = ""

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<lint pass {self.name}>"


#: All registered pass classes, keyed by pass name, in registration order.
PASS_REGISTRY: Dict[str, Type[LintPass]] = {}


def register_pass(cls: Type[LintPass]) -> Type[LintPass]:
    """Class decorator adding a pass to the default registry."""
    if not cls.name:
        raise ValueError(f"lint pass {cls.__name__} needs a non-empty name")
    if cls.name in PASS_REGISTRY:
        raise ValueError(f"duplicate lint pass name {cls.name!r}")
    PASS_REGISTRY[cls.name] = cls
    return cls


def default_passes() -> List[LintPass]:
    """One instance of every registered pass, in registration order."""
    return [cls() for cls in PASS_REGISTRY.values()]


class LintRunner:
    """Runs a configurable set of lint passes over a module.

    >>> runner = LintRunner()                    # all registered passes
    >>> runner = LintRunner(only=["dead-code"])  # a chosen subset
    """

    def __init__(
        self,
        passes: Optional[Iterable[LintPass]] = None,
        only: Optional[Iterable[str]] = None,
        machine: Optional[Machine] = None,
        profile=None,
    ):
        if passes is not None:
            self.passes = list(passes)
        elif only is not None:
            wanted = list(only)
            unknown = [n for n in wanted if n not in PASS_REGISTRY]
            if unknown:
                raise ValueError(
                    f"unknown lint pass(es) {unknown}; "
                    f"available: {sorted(PASS_REGISTRY)}"
                )
            self.passes = [PASS_REGISTRY[n]() for n in wanted]
        else:
            self.passes = default_passes()
        self.machine = machine
        self.profile = profile

    def register(self, lint_pass: LintPass) -> "LintRunner":
        self.passes.append(lint_pass)
        return self

    def run(
        self, module: Module, ctx: Optional[LintContext] = None
    ) -> DiagnosticReport:
        if ctx is None:
            ctx = LintContext(module, self.machine, profile=self.profile)
        report = DiagnosticReport()
        for lint_pass in self.passes:
            report.diagnostics.extend(lint_pass.run(ctx))
        return report


def lint_module(
    module: Module,
    machine: Optional[Machine] = None,
    only: Optional[Iterable[str]] = None,
    profile=None,
) -> DiagnosticReport:
    """Run the default (or a named subset of) lint passes over ``module``."""
    return LintRunner(only=only, machine=machine, profile=profile).run(module)


def lint_with_stats(
    module: Module,
    machine: Optional[Machine] = None,
    only: Optional[Iterable[str]] = None,
    profile=None,
):
    """Like :func:`lint_module`, but also return the :class:`LintContext`.

    Callers wanting post-run facts (points-to precision stats, interval
    envs, the static profile) read them off the returned context instead
    of re-solving the analyses the passes already paid for.
    """
    runner = LintRunner(only=only, machine=machine, profile=profile)
    ctx = LintContext(module, machine, profile=profile)
    report = runner.run(module, ctx)
    return report, ctx
