"""Region-granular partition interference checks.

:mod:`repro.lint.partcheck` verifies the paper's invariants at *object*
granularity: every object homed once, every memory op on its object's
home cluster, every cut register edge bridged by an ``ICMOVE``.  This
module re-states those contracts at *byte-region* granularity using the
interprocedural MOD/REF summaries (:mod:`repro.analysis.modref`) and the
static access-region analysis, which is exactly the precision a
sub-object partitioner needs to be trustworthy before it exists.

Rules
-----
``region-refinement``    (ERROR) a sharper points-to tier claims a byte
                         region outside the coarser tier's region for
                         the same (op, object) — the region analogue of
                         ``ptdiff-subset``, checked along the same
                         ``cs ⊆ field ⊆ andersen`` chain
``region-cross-cluster`` (ERROR) a memory op touches a byte region of an
                         object homed on a different cluster than the
                         op's assignment (the region-located form of the
                         Section 3.4 lock contract)
``region-interference``  (ERROR) overlapping byte regions of one object
                         are accessed from different clusters with at
                         least one write — regions the partition treats
                         as disjoint actually alias across the cut
``region-unbridged``     (ERROR) a value loaded from a byte region flows
                         to a consumer on another cluster with no
                         intercluster move bridging the cut edge
``region-splittable``    (INFO) an object's MOD/REF regions decompose
                         into ≥2 disjoint, never-co-accessed intervals —
                         the candidates a future sub-object partitioner
                         will split

The partition-dependent rules never fire on a valid outcome (they refine
contracts ``partcheck`` already enforces), so CI requires zero ERROR
findings across every bench × scheme × points-to tier.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..analysis.memo import op_locations
from ..analysis.modref import (
    Effect,
    ModRefAnalysis,
    effect_contains,
    format_effect,
)
from ..analysis.pointsto import TIERS
from ..ir import Module, Opcode
from .diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Severity,
    register_rule,
)
from .runner import LintContext, LintPass, register_pass

register_rule(
    "region-refinement",
    "sharper points-to tier claims bytes outside the coarser tier's region",
)
register_rule(
    "region-cross-cluster",
    "byte region accessed from a cluster other than its object's home",
)
register_rule(
    "region-interference",
    "overlapping byte regions of one object accessed from different "
    "clusters with a write",
)
register_rule(
    "region-unbridged",
    "loaded byte region flows across clusters with no intercluster move",
)
register_rule(
    "region-splittable",
    "object regions decompose into disjoint never-co-accessed intervals",
)


def _as_effect(region: Optional[Tuple[int, int]]) -> Effect:
    return None if region is None else [region]


def _regions_text(per_obj: Dict[str, Optional[Tuple[int, int]]]) -> str:
    parts = [
        f"{obj}:{format_effect(_as_effect(region))}"
        for obj, region in sorted(per_obj.items())
    ]
    return ", ".join(parts)


# -- tier refinement ----------------------------------------------------------


def diff_region_tiers(
    ctx: LintContext, tiers: Sequence[str] = TIERS
) -> Iterator[Diagnostic]:
    """Mirror the ptdiff subset chain at region granularity: for every
    (op, object) both tiers claim, the sharper tier's byte region must
    lie inside the coarser tier's."""
    index = ctx.op_locations()
    analyses = {tier: ctx.access_regions(tier) for tier in tiers}
    for coarse, fine in zip(tiers, tiers[1:]):
        coarse_regions = analyses[coarse].op_regions
        fine_regions = analyses[fine].op_regions
        for uid in sorted(fine_regions):
            per_fine = fine_regions[uid]
            per_coarse = coarse_regions.get(uid, {})
            for obj in sorted(per_fine):
                if obj not in per_coarse:
                    continue  # extra objects are ptdiff-subset's finding
                outer = _as_effect(per_coarse[obj])
                inner = _as_effect(per_fine[obj])
                if effect_contains(outer, inner):
                    continue
                func, block, op = index[uid]
                yield Diagnostic(
                    Severity.ERROR, "region-refinement",
                    f"tier {fine!r} claims bytes {format_effect(inner)} of "
                    f"{obj}, outside tier {coarse!r}'s region "
                    f"{format_effect(outer)}",
                    func=func, block=block, op=str(op),
                    hint="a sharper tier may only shrink the claimed "
                    "region, never extend it",
                    phase="regions",
                )


# -- splittability advisories -------------------------------------------------


def splittable_advisories(modref: ModRefAnalysis) -> Iterator[Diagnostic]:
    """INFO advisories naming the sub-object partitioning candidates."""
    for obj, components in sorted(modref.splittable_objects().items()):
        summary = modref.program_effects()
        written = format_effect(summary.mod_of(obj))
        yield Diagnostic(
            Severity.INFO, "region-splittable",
            f"object {obj} decomposes into {len(components)} disjoint "
            f"never-co-accessed regions "
            f"{format_effect(components)} (written: {written})",
            hint="a sub-object partitioner could home these intervals "
            "on different clusters without adding transfers",
            phase="regions",
        )


# -- partition-dependent checks -----------------------------------------------


def check_region_locks(
    module: Module,
    assignment: Dict[int, int],
    object_home: Dict[str, int],
    regions,
    access_counts: Optional[Dict[str, int]] = None,
    phase: str = "rhop",
) -> DiagnosticReport:
    """The Section 3.4 lock contract, located at byte regions: every
    memory op locked to an object home must sit on that cluster, and the
    diagnostic names the exact bytes the misplaced op touches."""
    from ..partition.locks import memory_locks

    report = DiagnosticReport()
    index = op_locations(module)
    expected = memory_locks(module, object_home, access_counts)
    for uid, home in sorted(expected.items()):
        placed = assignment.get(uid)
        if placed is None or placed == home:
            continue
        func, block, op = index[uid]
        per_obj = regions.op_regions.get(uid, {})
        report.error(
            "region-cross-cluster",
            f"bytes {_regions_text(per_obj) or '<unknown>'} are homed on "
            f"cluster {home} but accessed from cluster {placed}",
            func=func, block=block, op=str(op), phase=phase,
            hint="a remote sub-region access has no hardware path; the "
            "computation partitioner must honour the region's home",
        )
    return report


def check_region_interference(
    module: Module,
    assignment: Dict[int, int],
    object_home: Dict[str, int],
    regions,
    phase: str = "moves",
) -> DiagnosticReport:
    """Overlapping regions of one object must never be accessed from two
    clusters with a write on either side.

    Only operations whose *entire* may-touch object set shares a single
    home participate: those are provably locked to that home, so any
    cross-cluster overlap is a genuine interference bug rather than the
    multi-home ambiguity ``memory_locks`` resolves by access counts.
    """
    report = DiagnosticReport()
    index = op_locations(module)
    per_object: Dict[
        str, List[Tuple[int, int, bool, Optional[Tuple[int, int]]]]
    ] = {}
    for uid, per_obj in regions.op_regions.items():
        cluster = assignment.get(uid)
        if cluster is None:
            continue
        homes = {
            object_home[obj] for obj in per_obj if obj in object_home
        }
        if len(homes) != 1:
            continue
        op = index[uid][2]
        is_store = op.opcode is Opcode.STORE
        for obj, region in per_obj.items():
            per_object.setdefault(obj, []).append(
                (uid, cluster, is_store, region)
            )
    for obj in sorted(per_object):
        accesses = per_object[obj]
        clusters = {cluster for _, cluster, _, _ in accesses}
        if len(clusters) <= 1:
            continue
        for i, (uid_a, cl_a, store_a, reg_a) in enumerate(accesses):
            for uid_b, cl_b, store_b, reg_b in accesses[i + 1:]:
                if cl_a == cl_b or not (store_a or store_b):
                    continue
                if not _regions_alias(reg_a, reg_b):
                    continue
                func, block, op = index[uid_a]
                _, o_block, o_op = index[uid_b]
                report.error(
                    "region-interference",
                    f"bytes {format_effect(_as_effect(reg_a))} of {obj} "
                    f"on cluster {cl_a} alias bytes "
                    f"{format_effect(_as_effect(reg_b))} accessed from "
                    f"cluster {cl_b} (conflicting op in {o_block}: "
                    f"{o_op})",
                    func=func, block=block, op=str(op), phase=phase,
                    hint="regions split across clusters must be "
                    "provably disjoint; this pair shares bytes with a "
                    "write on one side",
                )
    return report


def _regions_alias(
    a: Optional[Tuple[int, int]], b: Optional[Tuple[int, int]]
) -> bool:
    if a is None or b is None:
        return True  # a whole-object claim overlaps everything
    return a[0] < b[1] and b[0] < a[1]


def check_region_moves(
    module: Module,
    assignment: Dict[int, int],
    regions,
    phase: str = "moves",
) -> DiagnosticReport:
    """Region-located form of the cut-edge contract: when a value loaded
    from a byte region is consumed on another cluster, an ``ICMOVE``
    must bridge the flow (mirrors ``check_moves``'s cut-edge rule, but
    names the region whose contents cross the cut unbridged)."""
    report = DiagnosticReport()
    for func in module:
        defs_clusters: Dict[int, set] = {}
        loads_by_vid: Dict[int, List[int]] = {}
        for op in func.operations():
            if op.dest is None or op.uid not in assignment:
                continue
            defs_clusters.setdefault(op.dest.vid, set()).add(
                assignment[op.uid]
            )
            if op.opcode is Opcode.LOAD:
                loads_by_vid.setdefault(op.dest.vid, []).append(op.uid)
        param_vids = {p.vid for p in func.params}
        for block in func:
            for op in block.ops:
                if op.uid not in assignment or op.is_icmove():
                    continue  # ICMOVEs are themselves the bridges
                cluster = assignment[op.uid]
                for src in op.register_srcs():
                    if src.vid in param_vids:
                        continue
                    sources = defs_clusters.get(src.vid)
                    if not sources or cluster in sources:
                        continue
                    for load_uid in loads_by_vid.get(src.vid, ()):
                        per_obj = regions.op_regions.get(load_uid, {})
                        report.error(
                            "region-unbridged",
                            f"value of bytes "
                            f"{_regions_text(per_obj) or '<unknown>'} "
                            f"loaded on cluster(s) {sorted(sources)} is "
                            f"consumed on cluster {cluster} with no "
                            "intercluster move",
                            func=func.name, block=block.name, op=str(op),
                            phase=phase,
                            hint="the loaded region's contents cross "
                            "the cluster cut; an ICMOVE must carry them",
                        )
    return report


# -- whole-outcome entry point ------------------------------------------------


def region_summary(modref: ModRefAnalysis) -> Dict[str, object]:
    """Deterministic aggregate for report footers and goldens."""
    effects = modref.program_effects()
    splittable = modref.splittable_objects()
    return {
        "objects_tracked": len(effects.objects()),
        "mod_objects": len(effects.mod),
        "ref_objects": len(effects.ref),
        "splittable_objects": len(splittable),
        "splittable_intervals": sum(
            len(parts) for parts in splittable.values()
        ),
        "widened_functions": len(modref.widened),
        "havoc_functions": sum(
            1 for s in modref.local.values() if s.havoc
        ),
    }


def check_region_outcome(
    prepared: "object", outcome: "object"
) -> DiagnosticReport:
    """Check a full :class:`SchemeOutcome` against every region-granular
    invariant that applies to its scheme.

    The analyses run on ``outcome.module`` (the scheme's transformed
    clone — its op uids match the assignment) driven by the module's
    ``mem_objects`` annotations, which carry whichever points-to tier
    ``prepared`` was built with; running the checker over outcomes
    prepared at each tier covers the whole refinement chain.
    """
    from ..analysis.dataflow.regions import AccessRegionAnalysis

    module = outcome.module
    regions = AccessRegionAnalysis(module)
    modref = ModRefAnalysis(module, regions=regions)
    report = DiagnosticReport()
    if outcome.object_home is not None:
        report.extend(
            check_region_locks(
                module, outcome.assignment, outcome.object_home, regions,
                prepared.object_access_counts(),
            )
        )
        report.extend(
            check_region_interference(
                module, outcome.assignment, outcome.object_home, regions
            )
        )
    report.extend(check_region_moves(module, outcome.assignment, regions))
    report.stats["regioncheck"] = region_summary(modref)
    return report


# -- the registered lint pass -------------------------------------------------


@register_pass
class RegionInterferencePass(LintPass):
    """Partition-independent region checks: the cross-tier refinement
    chain plus ``region-splittable`` advisories.  The partition-dependent
    rules live in :func:`check_region_outcome` (``--verify-partition``
    and the ``regioncheck`` CI stage)."""

    name = "regioncheck"
    description = "region-level MOD/REF refinement and splittability"

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        yield from diff_region_tiers(ctx)
        yield from splittable_advisories(ctx.modref())
