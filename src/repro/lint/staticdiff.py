"""Static-vs-dynamic drift differ for the access-region analysis.

The abstract-interpretation profile (:mod:`repro.analysis.dataflow.staticprofile`)
claims *sound upper bounds*: every block bound must dominate the measured
execution count, every memory op's weight bound must dominate the number
of accesses the interpreter recorded, and every static byte region must
contain the dynamically touched envelope.  A violation is not imprecision
— it is unsoundness in the dataflow stack (trip counts, execution bounds,
or the affine region math), and it would silently corrupt any partition
derived with ``--profile static``.  This differ turns such bugs into
located :class:`Diagnostic` errors.

Rules
-----
``staticdiff-block``   a block ran more often than its static bound
``staticdiff-weight``  a memory op accessed more often than its bound
``staticdiff-region``  a dynamic byte envelope escapes the static region
``staticdiff-drift``   (note) a finite bound far above the observed count

The drift notes are telemetry, not errors: they locate where the static
analysis is sound but loose, which is exactly the per-op data the
EXPERIMENTS.md drift table aggregates.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional

from ..analysis.memo import Analyses, op_locations
from ..ir import Module
from .diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Severity,
    register_rule,
)
from .runner import LintContext, LintPass, register_pass

register_rule(
    "staticdiff-block",
    "block execution count exceeds its static bound",
)
register_rule(
    "staticdiff-weight",
    "memory-op access count exceeds its static weight bound",
)
register_rule(
    "staticdiff-region",
    "dynamic byte envelope escapes the static access region",
)
register_rule(
    "staticdiff-drift",
    "static bound sound but far above the observed count",
)

#: A finite weight bound this many times (and this far) above the
#: observed count earns a ``staticdiff-drift`` note.
DRIFT_FACTOR = 64
DRIFT_SLACK = 1024


def _fmt_bound(bound: float) -> str:
    return "inf" if math.isinf(bound) else str(int(bound))


def _diff_iter(
    module: Module, dynamic, static
) -> Iterator[Diagnostic]:
    ops = op_locations(module)

    for (func, block), count in sorted(dynamic.block_counts.items()):
        bound = static.block_bounds.get((func, block))
        if bound is None:
            yield Diagnostic(
                Severity.ERROR, "staticdiff-block",
                f"block executed {count} time(s) but the static analysis "
                "assigned it no bound",
                func=func, block=block,
                hint="the execution-bound analysis believed this block "
                "unreachable; its reachability model is unsound",
                phase="staticdiff",
            )
        elif count > bound:
            yield Diagnostic(
                Severity.ERROR, "staticdiff-block",
                f"block executed {count} time(s), exceeding the static "
                f"bound {_fmt_bound(bound)}",
                func=func, block=block,
                hint="a trip-count or call-bound derivation "
                "under-approximated; static bounds must dominate "
                "every run",
                phase="staticdiff",
            )

    for uid in sorted(dynamic.op_object_counts):
        counts = dynamic.op_object_counts[uid]
        observed = sum(counts.values())
        if observed <= 0:
            continue
        func, block, op = ops.get(uid, (None, None, None))
        bound = static.op_weight_bounds.get(uid)
        if bound is None:
            yield Diagnostic(
                Severity.ERROR, "staticdiff-weight",
                f"memory op accessed {observed} time(s) but has no "
                "static weight bound",
                func=func, block=block,
                op=str(op) if op is not None else None,
                hint="the region analysis skipped an op the interpreter "
                "executed",
                phase="staticdiff",
            )
        elif observed > bound:
            yield Diagnostic(
                Severity.ERROR, "staticdiff-weight",
                f"memory op accessed {observed} time(s), exceeding the "
                f"static weight bound {_fmt_bound(bound)}",
                func=func, block=block,
                op=str(op) if op is not None else None,
                hint="the op's block bound under-approximated its "
                "execution count",
                phase="staticdiff",
            )
        elif (
            not math.isinf(bound)
            and bound >= observed * DRIFT_FACTOR
            and bound - observed >= DRIFT_SLACK
        ):
            yield Diagnostic(
                Severity.INFO, "staticdiff-drift",
                f"static weight bound {_fmt_bound(bound)} is "
                f"{int(bound // observed)}x the observed count {observed}",
                func=func, block=block,
                op=str(op) if op is not None else None,
                hint="sound but loose; a sharper trip-count derivation "
                "would tighten the static partition weights",
                phase="staticdiff",
            )

    for uid in sorted(dynamic.op_object_regions):
        func, block, op = ops.get(uid, (None, None, None))
        claimed = static.static_regions.get(uid, {})
        for obj in sorted(dynamic.op_object_regions[uid]):
            lo, hi = dynamic.op_object_regions[uid][obj]
            if obj not in claimed:
                yield Diagnostic(
                    Severity.ERROR, "staticdiff-region",
                    f"op touched bytes [{lo}, {hi}) of {obj} but the "
                    "static analysis never claimed that object here",
                    func=func, block=block,
                    op=str(op) if op is not None else None,
                    hint="the points-to set feeding the region analysis "
                    "missed a dynamically observed target",
                    phase="staticdiff",
                )
                continue
            region = claimed[obj]
            if region is None:
                continue  # whole-object claim contains everything
            slo, shi = region
            if lo < slo or hi > shi:
                yield Diagnostic(
                    Severity.ERROR, "staticdiff-region",
                    f"op touched bytes [{lo}, {hi}) of {obj}, escaping "
                    f"the static region [{slo}, {shi})",
                    func=func, block=block,
                    op=str(op) if op is not None else None,
                    hint="the affine address form or the live-in "
                    "intervals under-approximated the offset range",
                    phase="staticdiff",
                )


def diff_static_dynamic(
    module: Module, dynamic, static=None
) -> DiagnosticReport:
    """Check every static bound against a measured profile of ``module``.

    ``dynamic`` must come from interpreting *this module instance* (the
    comparison joins on op uids).  ``static`` defaults to the module's
    :meth:`~repro.analysis.Analyses.static_profile`, built over an
    Andersen points-to solution (without one, the region analysis only
    sees ops that already carry ``mem_objects`` annotations and would
    falsely claim nothing).
    """
    if static is None:
        static = Analyses(module).static_profile()
    report = DiagnosticReport(_diff_iter(module, dynamic, static))
    report.stats["staticdiff"] = drift_summary(module, dynamic, static)
    return report


def drift_summary(module: Module, dynamic, static) -> Dict[str, object]:
    """Deterministic aggregate of how tight the static bounds are.

    The violation counters should be zero on any sound build; the ratio
    columns quantify the cost of staying static (EXPERIMENTS.md).
    """
    ratios: List[float] = []
    finite = 0
    compared = 0
    for uid, counts in dynamic.op_object_counts.items():
        observed = sum(counts.values())
        bound = static.op_weight_bounds.get(uid)
        if observed <= 0 or bound is None:
            continue
        compared += 1
        if not math.isinf(bound):
            finite += 1
            ratios.append(bound / observed)
    violations = sum(
        1 for d in _diff_iter(module, dynamic, static)
        if d.severity is Severity.ERROR
    )
    ratios.sort()
    median: Optional[float] = None
    if ratios:
        mid = len(ratios) // 2
        median = (
            ratios[mid]
            if len(ratios) % 2
            else (ratios[mid - 1] + ratios[mid]) / 2
        )
    return {
        "ops_compared": compared,
        "ops_finite_bound": finite,
        "blocks_measured": len(dynamic.block_counts),
        "blocks_bounded": sum(
            1
            for key, bound in static.block_bounds.items()
            if key in dynamic.block_counts and not math.isinf(bound)
        ),
        "violations": violations,
        "median_weight_ratio": (
            round(median, 2) if median is not None else None
        ),
    }


@register_pass
class StaticDriftPass(LintPass):
    """Assert the static profile's bounds contain the dynamic profile.

    Silent without a dynamic profile on the context (``repro lint
    --dynamic-oracle`` provides one); a static profile is never checked
    against itself.
    """

    name = "staticdiff"
    description = "static access bounds must contain the dynamic profile"

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.profile is None or ctx.profile.is_static():
            return
        yield from _diff_iter(ctx.module, ctx.profile, ctx.static_profile())
