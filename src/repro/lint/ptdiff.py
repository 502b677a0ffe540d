"""Refinement-soundness differ for the tiered points-to analyses.

Each sharper points-to tier must be a *refinement* of the tier below: for
every memory operation, ``pts_cs(op) ⊆ pts_field(op) ⊆ pts_andersen(op)``.
A violation means one of the solvers dropped a target it must keep — a
bug that would silently corrupt the access-pattern merges and memory
locks downstream.  This differ turns such bugs into located
:class:`Diagnostic` errors.

Two oracles:

* **static subset** — solve every tier and compare per-op target sets
  along the lattice (``ptdiff-subset``);
* **dynamic under-approximation** — the profiler interpreter records the
  object actually touched by every executed load/store
  (:attr:`ProfileData.op_object_counts`); every observed object must be
  contained in *every* tier's static set (``ptdiff-oracle``).  The
  profile must come from interpreting the same module instance, since
  the check joins on operation uids.

:func:`precision_table` renders the per-tier stats with only
fixpoint-deterministic columns (set sizes, singleton ratio, may-alias
pairs) so golden tests stay stable across hash seeds.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional

from ..analysis.memo import Analyses
from ..analysis.pointsto import TIERS, PointsToResult
from ..evalmodel.report import format_table
from ..ir import Module
from ..machine import Machine
from .diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Severity,
    register_rule,
)
from .runner import LintContext, LintPass, lint_with_stats, register_pass

register_rule(
    "ptdiff-subset",
    "sharper points-to tier claims objects the coarser tier does not",
)
register_rule(
    "ptdiff-oracle",
    "dynamic profile observed an object the static tier never claims",
)


def tier_solutions(module: Module) -> Dict[str, PointsToResult]:
    """Solve every tier over ``module``, in one memo."""
    analyses = Analyses(module)
    return {tier: analyses.pointsto(tier) for tier in TIERS}


def _diff_iter(
    module: Module, solutions: Dict[str, PointsToResult], profile
) -> Iterator[Diagnostic]:
    for func in module:
        for block in func:
            for op in block.ops:
                if not op.is_memory_access():
                    continue
                sets = {
                    t: solutions[t].objects_for_op(func.name, op) for t in TIERS
                }
                for coarse, fine in zip(TIERS, TIERS[1:]):
                    extra = sets[fine] - sets[coarse]
                    if extra:
                        yield Diagnostic(
                            Severity.ERROR, "ptdiff-subset",
                            f"tier {fine!r} is not a refinement of "
                            f"{coarse!r}: targets {sorted(extra)} appear "
                            f"only in the sharper tier",
                            func=func.name, block=block.name, op=str(op),
                            hint="a sharper solver may only *drop* "
                            "spurious targets, never invent new ones",
                            phase="pointsto",
                        )
                if profile is None:
                    continue
                counts = profile.op_object_counts.get(op.uid)
                if not counts:
                    continue
                observed = set(counts)
                for tier in TIERS:
                    missed = observed - sets[tier]
                    if missed:
                        yield Diagnostic(
                            Severity.ERROR, "ptdiff-oracle",
                            f"tier {tier!r} misses dynamically observed "
                            f"target(s) {sorted(missed)}",
                            func=func.name, block=block.name, op=str(op),
                            hint="the static set must over-approximate "
                            "every object the interpreter touched here",
                            phase="pointsto",
                        )


def diff_tiers(module: Module) -> DiagnosticReport:
    """Run the static refinement differ over every tier; the returned
    report carries the per-tier precision stats in
    :attr:`DiagnosticReport.stats`.  The dynamic oracle runs through
    :func:`lint_report` with a profile."""
    sols = tier_solutions(module)
    report = DiagnosticReport(_diff_iter(module, sols, None))
    for tier in TIERS:
        report.stats[tier] = sols[tier].stats().to_dict()
    return report


#: Stat columns that are functions of the solved fixpoint alone (no wall
#: clock, no iteration order) — the only ones safe for golden files.
DETERMINISTIC_COLUMNS = (
    "memory_ops",
    "annotated_ops",
    "empty_ops",
    "avg_set_size",
    "max_set_size",
    "singleton_ratio",
    "mayalias_pairs",
)


def precision_table(module: Module) -> str:
    """Deterministic per-tier precision table (one row per tier)."""
    sols = tier_solutions(module)
    rows = []
    for tier in TIERS:
        stats = sols[tier].stats().to_dict()
        rows.append([tier] + [str(stats[c]) for c in DETERMINISTIC_COLUMNS])
    table = format_table(("tier",) + DETERMINISTIC_COLUMNS, rows)
    return "\n".join(line.rstrip() for line in table.splitlines())


def lint_report(
    module: Module,
    machine: Optional[Machine] = None,
    only: Optional[Iterable[str]] = None,
    profile=None,
) -> DiagnosticReport:
    """The report ``repro lint`` prints: :func:`lint_with_stats` plus every
    tier's ``DETERMINISTIC_COLUMNS`` points-to stats, so the JSON form is
    byte-stable across runs.  The context memoizes the solves the differ
    pass already performed, so the stats cost nothing beyond any tier the
    passes skipped."""
    report, ctx = lint_with_stats(
        module, machine=machine, only=only, profile=profile
    )
    for tier in TIERS:
        stats = ctx.pointsto(tier).stats().to_dict()
        report.stats[tier] = {c: stats[c] for c in DETERMINISTIC_COLUMNS}
    return report


@register_pass
class RefinementDifferPass(LintPass):
    """Check ``pts_cs ⊆ pts_field ⊆ pts_andersen`` per memory op, plus the
    dynamic oracle when the lint context carries a profile."""

    name = "ptdiff"
    description = "refinement soundness across points-to precision tiers"

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        solutions = {tier: ctx.pointsto(tier) for tier in TIERS}
        yield from _diff_iter(ctx.module, solutions, ctx.profile)
