"""Structured diagnostics for the static-analysis layer.

Every check in :mod:`repro.lint` — IR lint passes, the structural
verifier bridge, and the partition validity checker — reports findings as
:class:`Diagnostic` values instead of raising ad-hoc exceptions.  A
diagnostic carries a severity, a stable rule id, an IR location
(function / block / operation), the phase of the pipeline that the
finding is attributed to, and an optional fix hint.  Reports render as
human-readable text or as deterministic JSON for golden tests and CI.
"""

from __future__ import annotations

import enum
import json
from typing import Any, Dict, Iterable, Iterator, List, Optional


class Severity(enum.Enum):
    """How bad a finding is; ordered ``ERROR < WARNING < INFO`` by rank."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]


_SEVERITY_RANK: Dict[Severity, int] = {
    Severity.ERROR: 0,
    Severity.WARNING: 1,
    Severity.INFO: 2,
}

#: SARIF result levels for each severity.
_SARIF_LEVEL: Dict[Severity, str] = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}


#: Optional SARIF ``shortDescription`` text per rule id.  Only rules
#: registered here get metadata in the SARIF rules array; unregistered
#: rules keep the bare ``{"id": ...}`` form so historical golden logs
#: stay byte-identical.
RULE_METADATA: Dict[str, str] = {}


def register_rule(rule: str, short_description: str) -> None:
    """Attach SARIF ``shortDescription`` metadata to a rule id."""
    RULE_METADATA[rule] = short_description


def _render_stat(value: Any) -> str:
    if isinstance(value, dict):
        return "  ".join(f"{k}={value[k]}" for k in sorted(value))
    return str(value)


class Diagnostic:
    """One finding: severity, rule id, location, message, and fix hint.

    ``op`` is the textual form of the operation (not the object) so that
    reports stay serialisable and stable after the module is mutated.
    ``phase`` attributes the finding to the pipeline phase that caused it
    (``"gdp"``, ``"rhop"``, ``"bug"``, ``"moves"``, ...).
    """

    __slots__ = ("severity", "rule", "message", "func", "block", "op", "hint", "phase")

    def __init__(
        self,
        severity: Severity,
        rule: str,
        message: str,
        func: Optional[str] = None,
        block: Optional[str] = None,
        op: Optional[str] = None,
        hint: Optional[str] = None,
        phase: Optional[str] = None,
    ):
        self.severity = severity
        self.rule = rule
        self.message = message
        self.func = func
        self.block = block
        self.op = op
        self.hint = hint
        self.phase = phase

    def location(self) -> str:
        """``func/block`` (whichever parts are known), or ``<module>``."""
        if self.func and self.block:
            return f"{self.func}/{self.block}"
        if self.func:
            return self.func
        return "<module>"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict; ``None`` fields are omitted for stable goldens."""
        data: Dict[str, Any] = {
            "severity": self.severity.value,
            "rule": self.rule,
            "message": self.message,
        }
        for key in ("func", "block", "op", "hint", "phase"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        return data

    def render(self) -> str:
        parts = [f"{self.severity.value}[{self.rule}] {self.location()}: {self.message}"]
        if self.op:
            parts.append(f"  | {self.op}")
        if self.hint:
            parts.append(f"  hint: {self.hint}")
        if self.phase:
            parts[0] += f" (phase: {self.phase})"
        return "\n".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.severity.value}[{self.rule}] {self.location()}>"


class DiagnosticReport:
    """An ordered collection of diagnostics with rendering helpers."""

    def __init__(self, diagnostics: Optional[Iterable[Diagnostic]] = None):
        self.diagnostics: List[Diagnostic] = list(diagnostics or [])
        #: Optional analysis observability payload rendered alongside the
        #: findings (e.g. per-tier points-to precision stats keyed by tier
        #: name).  Empty by default so existing renderings are unchanged.
        self.stats: Dict[str, Any] = {}

    # -- building ---------------------------------------------------------------

    def add(
        self,
        severity: Severity,
        rule: str,
        message: str,
        func: Optional[str] = None,
        block: Optional[str] = None,
        op: Optional[str] = None,
        hint: Optional[str] = None,
        phase: Optional[str] = None,
    ) -> Diagnostic:
        diag = Diagnostic(severity, rule, message, func, block, op, hint, phase)
        self.diagnostics.append(diag)
        return diag

    def error(self, rule: str, message: str, **kwargs: Optional[str]) -> Diagnostic:
        return self.add(Severity.ERROR, rule, message, **kwargs)

    def warning(self, rule: str, message: str, **kwargs: Optional[str]) -> Diagnostic:
        return self.add(Severity.WARNING, rule, message, **kwargs)

    def info(self, rule: str, message: str, **kwargs: Optional[str]) -> Diagnostic:
        return self.add(Severity.INFO, rule, message, **kwargs)

    def extend(self, other: "DiagnosticReport") -> "DiagnosticReport":
        self.diagnostics.extend(other.diagnostics)
        self.stats.update(other.stats)
        return self

    # -- queries ----------------------------------------------------------------

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def by_rule(self, rule: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule]

    def summary(self) -> str:
        e, w = len(self.errors), len(self.warnings)
        i = len(self.diagnostics) - e - w
        return f"{e} error(s), {w} warning(s), {i} note(s)"

    # -- rendering --------------------------------------------------------------

    def sorted(self) -> "DiagnosticReport":
        """A copy ordered by severity, then location, then rule (stable)."""
        ordered = sorted(
            self.diagnostics,
            key=lambda d: (d.severity.rank, d.location(), d.rule),
        )
        copy = DiagnosticReport(ordered)
        copy.stats = dict(self.stats)
        return copy

    def render_text(self) -> str:
        lines: List[str] = []
        if not self.diagnostics:
            lines.append("no diagnostics")
        else:
            lines.extend(d.render() for d in self.sorted())
            lines.append(self.summary())
        for key in sorted(self.stats):
            lines.append(f"stats[{key}]: {_render_stat(self.stats[key])}")
        return "\n".join(lines)

    def to_json(self) -> str:
        """Deterministic JSON: diagnostics sorted as in the text report,
        dict keys sorted."""
        payload: Dict[str, Any] = {
            "diagnostics": [d.to_dict() for d in self.sorted()],
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "total": len(self.diagnostics),
            },
        }
        if self.stats:
            payload["stats"] = self.stats
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_sarif(self) -> str:
        """Render as a minimal SARIF 2.1.0 log (one run, one result per
        diagnostic) for CI annotation tooling.

        IR locations have no source file, so each result carries its
        ``func/block`` location as a logicalLocation and the operation
        text, when known, in the message.
        """
        rules: List[Dict[str, Any]] = []
        for rule in sorted({d.rule for d in self.diagnostics}):
            entry: Dict[str, Any] = {"id": rule}
            if rule in RULE_METADATA:
                entry["shortDescription"] = {"text": RULE_METADATA[rule]}
            rules.append(entry)
        results: List[Dict[str, Any]] = []
        for d in self.sorted():
            message = d.message
            if d.op:
                message = f"{message} [{d.op}]"
            if d.hint:
                message = f"{message} (hint: {d.hint})"
            result: Dict[str, Any] = {
                "ruleId": d.rule,
                "level": _SARIF_LEVEL[d.severity],
                "message": {"text": message},
                "locations": [
                    {
                        "logicalLocations": [
                            {
                                "fullyQualifiedName": d.location(),
                                "kind": "function",
                            }
                        ]
                    }
                ],
            }
            if d.phase is not None:
                result["properties"] = {"phase": d.phase}
            results.append(result)
        log = {
            "$schema": (
                "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json"
            ),
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "repro-lint",
                            "informationUri": "https://example.invalid/repro",
                            "rules": rules,
                        }
                    },
                    "results": results,
                }
            ],
        }
        return json.dumps(log, indent=2, sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<report: {self.summary()}>"

