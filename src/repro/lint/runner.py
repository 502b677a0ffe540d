"""The lint driver: pass registry, shared analysis context, and runner.

A lint pass is a small class with a ``name``, a ``description``, and a
``run(ctx)`` generator yielding :class:`Diagnostic` values.  Passes share
one :class:`LintContext` per module — an
:class:`~repro.analysis.Analyses` memo — so the underlying analyses
(CFG, def-use, liveness, points-to, object table, ...) are computed at
most once regardless of how many passes consume them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Type

from ..analysis.memo import Analyses
from ..ir import Module
from ..machine import Machine
from .diagnostics import Diagnostic, DiagnosticReport


class LintContext(Analyses):
    """Per-module analysis memo handed to every lint pass.

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
        super().__init__(module)
        self.machine = machine
        self.profile = profile


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
        only: Optional[Iterable[str]] = None,
        machine: Optional[Machine] = None,
        profile=None,
    ):
        if only is not None:
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
    module: Module, only: Optional[Iterable[str]] = None
) -> DiagnosticReport:
    """Run the default (or a named subset of) lint passes over ``module``,
    with no machine and no dynamic profile (:func:`lint_with_stats` takes
    both)."""
    return LintRunner(only=only).run(module)


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
