"""Interprocedural region-level MOD/REF summaries.

For every function this computes which byte intervals of which data
objects the function (and everything it transitively calls) may *write*
(MOD) and may *read* (REF).  The per-op intervals come from the static
access-region analysis (:class:`~repro.analysis.dataflow.regions.AccessRegionAnalysis`)
and the object sets from whichever points-to tier annotated the module,
so the summaries inherit the precision of both analyses.

The lattice per (function, object) is ``None`` = ⊤ (the whole object)
above finite lists of coalesced half-open byte intervals, ordered by
containment.  Summaries are computed bottom-up over the call graph, one
strongly connected component at a time:

* a singleton, non-recursive SCC folds its callees' transitive
  summaries into its local effects;
* a recursive SCC (self-loop or mutual recursion) takes the union of
  its members' local effects and external callees, then **widens every
  interval to ⊤**: a region expression re-evaluated under unboundedly
  many recursive environments has no finite interval fixpoint here, and
  whole-object is always a sound containment answer;
* a call whose callee is not defined in the module (MiniC has no
  function pointers, so this is the defensive stand-in for indirect
  calls) poisons the caller with :attr:`ModRefSummary.havoc` — the
  summary then claims every object, whole, on both sides.

Clients: the region-granular partition checker
(:mod:`repro.lint.regioncheck`) uses the summaries for cross-cluster
interference checks and for ``region-splittable`` advisories, and the
data-movement roofline uses the footprints they aggregate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from .affine import coalesce_intervals
from .dataflow.regions import AccessRegionAnalysis
from ..ir import Opcode
from ..ir.verifier import KNOWN_EXTERNALS

if TYPE_CHECKING:
    from .memo import Analyses

#: Per-object effect: coalesced byte intervals, or ``None`` = ⊤ (whole).
Effect = Optional[List[Tuple[int, int]]]

#: Object id -> effect.
Effects = Dict[str, Effect]


def merge_effect(a: Effect, b: Effect) -> Effect:
    """Join two effects in the containment lattice (⊤ absorbs)."""
    if a is None or b is None:
        return None
    return coalesce_intervals(list(a) + list(b))


def merge_effects(into: Effects, other: Effects) -> None:
    """In-place join of ``other`` into ``into``."""
    for obj, effect in other.items():
        if obj in into:
            into[obj] = merge_effect(into[obj], effect)
        else:
            into[obj] = None if effect is None else list(effect)


def effect_contains(outer: Effect, inner: Effect) -> bool:
    """True when every byte of ``inner`` lies inside ``outer``."""
    if outer is None:
        return True
    if inner is None:
        return False
    for lo, hi in inner:
        if not any(olo <= lo and hi <= ohi for olo, ohi in outer):
            return False
    return True


class ModRefSummary:
    """MOD/REF effects of one function (local or transitive)."""

    __slots__ = ("mod", "ref", "havoc")

    def __init__(
        self,
        mod: Optional[Effects] = None,
        ref: Optional[Effects] = None,
        havoc: bool = False,
    ):
        self.mod: Effects = mod or {}
        self.ref: Effects = ref or {}
        #: True when an unresolvable call forces the summary to claim
        #: every object whole (the ⊤ of the whole summary lattice).
        self.havoc = havoc

    def objects(self) -> Set[str]:
        return set(self.mod) | set(self.ref)

    def mod_of(self, obj: str) -> Effect:
        """MOD intervals for ``obj`` (``[]`` when never written)."""
        if self.havoc:
            return None
        return self.mod.get(obj, [])

    def ref_of(self, obj: str) -> Effect:
        if self.havoc:
            return None
        return self.ref.get(obj, [])

    def touched(self, obj: str) -> Effect:
        """Union of MOD and REF intervals for ``obj``."""
        if self.havoc:
            return None
        if obj not in self.mod:
            return self.ref_of(obj)
        if obj not in self.ref:
            return self.mod_of(obj)
        return merge_effect(self.mod[obj], self.ref[obj])

    def copy(self) -> "ModRefSummary":
        return ModRefSummary(
            {o: (None if e is None else list(e)) for o, e in self.mod.items()},
            {o: (None if e is None else list(e)) for o, e in self.ref.items()},
            self.havoc,
        )

    def widen(self) -> None:
        """⊤-interval widening: keep the object sets, drop the intervals."""
        for obj in self.mod:
            self.mod[obj] = None
        for obj in self.ref:
            self.ref[obj] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = " havoc" if self.havoc else ""
        return (
            f"<modref{tag}: {len(self.mod)} mod, {len(self.ref)} ref>"
        )


class ModRefAnalysis:
    """Whole-module interprocedural MOD/REF summaries over ``regions``'
    per-op byte regions, read through the call graph of ``analyses`` (the
    module's :class:`~repro.analysis.memo.Analyses` memo, which builds
    this analysis as ``modref(tier)``).
    """

    def __init__(
        self,
        analyses: "Analyses",
        regions: AccessRegionAnalysis,
    ):
        self.module = analyses.module
        self.regions = regions
        self.callgraph = analyses.callgraph()
        #: Intraprocedural effects (no callees folded in).
        self.local: Dict[str, ModRefSummary] = {}
        #: Transitive effects (callees folded in, recursion widened).
        self.summaries: Dict[str, ModRefSummary] = {}
        #: Functions whose intervals were widened to ⊤ (recursion).
        self.widened: Set[str] = set()
        self._compute_local()
        self._compute_transitive()

    # -- construction --------------------------------------------------------

    def _compute_local(self) -> None:
        for func in self.module:
            self.local[func.name] = ModRefSummary()
        for func in self.module:
            summary = self.local[func.name]
            for block in func:
                for op in block.ops:
                    if op.is_call():
                        callee = op.attrs.get("callee")
                        if (
                            callee not in self.callgraph.callees
                            and callee not in KNOWN_EXTERNALS
                        ):
                            # No function pointers exist in MiniC, so an
                            # unresolvable callee is the indirect-call
                            # stand-in: havoc the caller.  The modelled
                            # intrinsics take values by register and
                            # touch no data objects.
                            summary.havoc = True
                        continue
                    if not op.is_memory_access():
                        continue
                    per_obj = self.regions.op_regions.get(op.uid, {})
                    side = (
                        summary.mod
                        if op.opcode is Opcode.STORE
                        else summary.ref
                    )
                    for obj, region in per_obj.items():
                        effect: Effect = None if region is None else [region]
                        if obj in side:
                            side[obj] = merge_effect(side[obj], effect)
                        else:
                            side[obj] = effect

    def _compute_transitive(self) -> None:
        for component in self.callgraph.sccs():
            recursive = len(component) > 1 or (
                component[0] in self.callgraph.callees.get(component[0], ())
            )
            summary = ModRefSummary()
            for name in component:
                local = self.local.get(name)
                if local is None:
                    continue
                summary.havoc = summary.havoc or local.havoc
                merge_effects(summary.mod, local.mod)
                merge_effects(summary.ref, local.ref)
                for callee in self.callgraph.callees.get(name, ()):
                    if callee in component:
                        continue
                    callee_summary = self.summaries.get(callee)
                    if callee_summary is None:
                        continue
                    summary.havoc = summary.havoc or callee_summary.havoc
                    merge_effects(summary.mod, callee_summary.mod)
                    merge_effects(summary.ref, callee_summary.ref)
            if recursive:
                summary.widen()
                self.widened.update(component)
            for name in component:
                self.summaries[name] = (
                    summary if len(component) == 1 else summary.copy()
                )

    # -- queries -------------------------------------------------------------

    def summary_of(self, name: str) -> ModRefSummary:
        """Transitive summary of ``name`` (empty for unknown functions)."""
        return self.summaries.get(name, ModRefSummary())

    def program_effects(self) -> ModRefSummary:
        """Union of every function's local effects — what the whole
        program may touch, with intervals (``main``'s transitive summary
        alone would carry recursion widening)."""
        total = ModRefSummary()
        for summary in self.local.values():
            total.havoc = total.havoc or summary.havoc
            merge_effects(total.mod, summary.mod)
            merge_effects(total.ref, summary.ref)
        return total

    def splittable_objects(self) -> Dict[str, List[Tuple[int, int]]]:
        """Objects whose touched regions decompose into ≥2 disjoint,
        never-co-accessed byte intervals — the candidates a sub-object
        partitioner could home on different clusters.

        An object qualifies when no access claims the whole object and
        the per-op intervals coalesce into at least two components (each
        access touches exactly one component, so the components are
        never co-accessed by any single operation).
        """
        out: Dict[str, List[Tuple[int, int]]] = {}
        for obj, intervals in sorted(self.regions.object_intervals().items()):
            if intervals is None:
                continue
            components = coalesce_intervals(intervals)
            if len(components) >= 2:
                out[obj] = components
        return out


def format_effect(effect: Effect) -> str:
    """Render an effect for diagnostics: ``whole`` or ``[lo,hi)+``."""
    if effect is None:
        return "whole"
    if not effect:
        return "none"
    return "+".join(f"[{lo},{hi})" for lo, hi in effect)


__all__ = [
    "Effect",
    "Effects",
    "ModRefAnalysis",
    "ModRefSummary",
    "effect_contains",
    "format_effect",
    "merge_effect",
    "merge_effects",
]
