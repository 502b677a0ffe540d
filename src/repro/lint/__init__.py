"""Pluggable static-analysis layer: IR lint passes, structural-verifier
bridge, and the cross-phase partition/schedule validity checker.

Programmatic API::

    from repro.lint import lint_module, check_scheme_outcome

    report = lint_module(module)          # IR-level rules
    if report.has_errors:
        print(report.render_text())

CLI: ``repro lint program.mc`` / ``repro partition --verify-partition``.
"""

from .diagnostics import Diagnostic, DiagnosticReport, Severity
from .runner import (
    PASS_REGISTRY,
    LintContext,
    LintPass,
    LintRunner,
    default_passes,
    lint_module,
    lint_with_stats,
    register_pass,
)
from . import irlint  # noqa: F401  (imports register the default passes)
from .ptdiff import (
    DETERMINISTIC_COLUMNS,
    RefinementDifferPass,
    diff_tiers,
    lint_report,
    precision_table,
    tier_solutions,
)
from .staticdiff import (
    StaticDriftPass,
    diff_static_dynamic,
    drift_summary,
)
from .partcheck import (
    check_data_partition,
    check_memory_locks,
    check_moves,
    check_schedule,
    check_scheme_outcome,
    diagnose_lock_violations,
)
from .regioncheck import (
    RegionInterferencePass,
    check_region_outcome,
    diff_region_tiers,
    region_summary,
    splittable_advisories,
)

__all__ = [
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "LintContext",
    "LintPass",
    "LintRunner",
    "PASS_REGISTRY",
    "default_passes",
    "lint_module",
    "lint_with_stats",
    "register_pass",
    "DETERMINISTIC_COLUMNS",
    "RefinementDifferPass",
    "diff_tiers",
    "lint_report",
    "precision_table",
    "tier_solutions",
    "StaticDriftPass",
    "diff_static_dynamic",
    "drift_summary",
    "check_data_partition",
    "check_memory_locks",
    "check_moves",
    "check_schedule",
    "check_scheme_outcome",
    "diagnose_lock_violations",
    "RegionInterferencePass",
    "check_region_outcome",
    "diff_region_tiers",
    "region_summary",
    "splittable_advisories",
]
