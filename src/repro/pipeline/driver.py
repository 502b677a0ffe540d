"""The one way to run a scheme: artifact cache plus degradation ladder.

:class:`Pipeline` drives compile → profile → partition → schedule →
evaluate from one frozen :class:`~repro.exec.RunConfig`:

- :meth:`Pipeline.prepare` serves the prepared program from the artifact
  cache, or builds it under the *profiler rung*: when the dynamic
  profiler fails, preparation degrades to the statically derived
  profile instead of aborting;
- :meth:`Pipeline.run` probes the outcome cache, then runs the paper's
  quality ladder GDP → Profile Max → Naïve → Unified (one rung when
  ``fallback`` is off): each rung is retried ``retries`` times with a
  reseeded partitioner, each attempt's output is validated when
  ``validate`` is on, and the result is stored.  The unlocked RHOP pass
  that Unified, Naïve and Profile Max's first pass share is itself an
  artifact: the first scheme to need it stores it, the others load it;
- :meth:`Pipeline.run_all` / :meth:`Pipeline.compare` sit on top, and
  :meth:`Pipeline.lookup` is the read-only warm probe (it never
  compiles, rehydrates, or stores).

Every attempt, fault, retry, fallback, budget and cache event lands in a
:class:`~repro.resilience.RunReport`.  A shared
:class:`~repro.resilience.Budget` (``max_seconds``) bounds the whole run:
the partitioners poll it inside their refinement loops and the ladder
stops spending on retries once it expires.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

# The artifact (de)serialisers are called as ``engine.<name>``: those
# module attributes are what perfbench/spans.py wraps to time them.
from ..exec import engine
from ..exec.artifacts import (
    outcome_key_material,
    prepared_key_material,
    rhop_key_material,
)
from ..exec.cache import ArtifactCache, canonical_key
from ..exec.runconfig import SCHEMES
from ..ir import Module
from ..lint import check_scheme_outcome
from ..machine import Machine
from ..partition.rhop import RHOP, RHOPResult
from ..profiler import InterpreterError
from ..resilience.errors import InjectedFault, LadderExhausted, as_phase_error
from ..resilience.report import RunReport
from .prepared import PreparedProgram
from .schemes import SchemeOutcome, UnlockedPass, run_scheme

#: Seed stride between retry attempts.  The multilevel partitioners run
#: ``RESTARTS`` internal cycles seeded ``seed + 0 .. seed + RESTARTS-1``;
#: a stride much larger than any restart count guarantees a retry explores
#: a disjoint seed range instead of replaying the same cycles shifted.
RESEED_STRIDE = 9973


class Pipeline:
    """Runs partitioning schemes as one :class:`~repro.exec.RunConfig`
    says: cache policy, profile source, ladder, retries, budget, faults,
    validation and seed.

    ``machine`` overrides the config's machine preset; ``cache`` shares
    an :class:`~repro.exec.ArtifactCache` handle so its hit/miss counters
    accumulate in one place.

    Example
    -------
    >>> from repro.exec import RunConfig
    >>> from repro.pipeline import Pipeline
    >>> pipe = Pipeline(RunConfig(latency=5, cache="off"))
    >>> prepared = pipe.prepare("int main() { print_int(7); return 0; }")
    >>> pipe.run(prepared, "gdp").cycles > 0
    True
    """

    def __init__(
        self,
        config,
        machine: Optional[Machine] = None,
        cache: Optional[ArtifactCache] = None,
    ):
        self.config = config
        self.machine = machine if machine is not None else config.build_machine()
        self.cache = (
            cache if cache is not None
            else ArtifactCache(config.cache_dir, config.cache)
        )
        # Fresh per pipeline: both carry mutable state.
        self.budget = config.build_budget()
        self.faults = config.build_faults()
        #: Artifacts read so far (canonical key -> payload or None): each
        #: is read from disk at most once per pipeline, so the warm probe
        #: followed by prepare/run on its miss costs no second load.
        self._loaded: Dict[str, Optional[Dict[str, Any]]] = {}

    # -- the artifact cache ------------------------------------------------------

    def _load(self, kind: str, material, report: Optional[RunReport]):
        """The artifact for ``material`` (None on a miss); a hit is
        recorded in ``report`` once, at the disk read."""
        key = f"{kind}:{canonical_key(material)}"
        if key not in self._loaded:
            payload = self.cache.load(kind, material)
            self._loaded[key] = payload
            if payload is not None and report is not None:
                report.record_cache(kind, "hit")
        return self._loaded[key]

    def _store(self, kind: str, material, payload, report: RunReport) -> None:
        self.cache.store(kind, material, payload)
        # Forget the miss: a later read goes to the store again.
        self._loaded.pop(f"{kind}:{canonical_key(material)}", None)
        report.record_cache(kind, "miss")

    def _prepared_material(self, source: str, name: str):
        return prepared_key_material(
            source, name, self.config.pointsto_tier,
            profile=self.config.profile,
        )

    def _outcome_material(self, ir_hash: str, scheme: str, profile: str):
        return outcome_key_material(
            ir_hash, self.machine, self.config.pointsto_tier, scheme,
            self.config.seed, profile,
        )

    def _unlocked_pass(
        self, prepared: PreparedProgram, report: RunReport
    ) -> UnlockedPass:
        """The shared unlocked RHOP pass for ``prepared``: loaded from
        the ``rhop`` artifact, else computed on the caller's module copy
        and stored for the next scheme that needs it."""

        def unlocked_pass(rhop: RHOP, module: Module) -> RHOPResult:
            material = rhop_key_material(
                prepared.fingerprint(), rhop.machine, prepared.pointsto_tier,
                prepared.profile_mode, rhop.config.seed,
            )
            payload = self._load("rhop", material, report)
            if payload is not None:
                return engine.rhop_from_payload(payload, module)
            result = rhop.partition_module(module)
            self._store(
                "rhop", material, engine.rhop_to_payload(result, module),
                report,
            )
            return result

        return unlocked_pass

    def lookup(
        self,
        source: str,
        name: str = "program",
        report: Optional[RunReport] = None,
    ) -> Optional[Dict[str, Any]]:
        """The cached outcome payload for the config's scheme when both
        its artifacts are on disk, else None.

        The warm fast path: the outcome key's IR hash is read from the
        prepared artifact, so nothing is compiled, rehydrated or stored.
        A hit is recorded in ``report`` as a one-rung run.
        """
        if not self.config.cacheable_results:
            return None
        scheme = self.config.scheme
        prepared = self._load(
            "prepared", self._prepared_material(source, name), report
        )
        if prepared is None:
            return None
        # A prepared artifact is only stored under the profile it was
        # built with, so the config's profile is the one it carries.
        payload = self._load(
            "outcome",
            self._outcome_material(
                prepared["ir_hash"], scheme, self.config.profile
            ),
            report,
        )
        if payload is not None and report is not None:
            report.record_run(scheme, [scheme])
            report.record_final(scheme, payload["scheme"], "ok")
        return payload

    # -- preparation -------------------------------------------------------------

    def prepare(
        self,
        source: str,
        name: str = "program",
        report: Optional[RunReport] = None,
    ) -> PreparedProgram:
        """The prepared program for ``source``: rehydrated from the cache
        on a hit (no interpretation, no points-to solve), else built
        under the profiler rung and stored.  Under a fault plan the
        artifact is never read, so an injected profiler fault fires."""
        report = RunReport() if report is None else report
        material = self._prepared_material(source, name)
        payload = (
            self._load("prepared", material, report)
            if self.config.cache_enabled and self.faults is None else None
        )
        if payload is not None:
            return _with_fingerprint(
                engine.prepared_from_payload(payload), payload
            )
        prepared = self._profile(source, name, report)
        if not self.config.cache_enabled:
            return prepared
        if prepared.profile_mode != self.config.profile:
            # A degraded (static) profile must never answer for the
            # dynamic key.
            report.record_cache("prepared", "miss")
            return prepared
        payload = engine.prepared_to_payload(prepared)
        self._store("prepared", material, payload, report)
        return _with_fingerprint(prepared, payload)

    def _profile(
        self, source: str, name: str, report: RunReport
    ) -> PreparedProgram:
        """Build the prepared program under the profiler rung.

        The dynamic profiler is itself a rung: when interpretation fails
        — an injected ``raise:profiler`` fault, an interpreter error, or
        the step-limit timeout — preparation degrades to the statically
        derived profile (``profile:static``), so the partitioners still
        get access weights rather than dropping to naive placement.
        """
        config = self.config
        if config.profile == "static":
            return PreparedProgram.from_source(source, name, config=config)
        report.start_attempt()
        try:
            if self.faults is not None:
                self.faults.begin_attempt("profiler", 1)
                self.faults.maybe_raise("profiler")
            return PreparedProgram.from_source(source, name, config=config)
        except (InjectedFault, InterpreterError) as exc:
            self._drain_faults(report)
            reason = str(exc)
            report.record_attempt("profile:dynamic", 1, "error", error=reason)
            report.record_fallback("profile:dynamic", "profile:static", reason)
            report.start_attempt()
            prepared = PreparedProgram.from_source(
                source, name, config=config.replace(profile="static")
            )
            report.record_attempt("profile:static", 1, "ok")
            return prepared

    # -- execution ---------------------------------------------------------------

    def run(
        self,
        prepared: PreparedProgram,
        scheme: Optional[str] = None,
        report: Optional[RunReport] = None,
    ) -> SchemeOutcome:
        """Run ``scheme`` (default: the config's) end to end.

        Served from the outcome cache when possible; otherwise the ladder
        runs and its result is stored.  The outcome carries ``requested``
        and ``report``; raises
        :class:`~repro.resilience.LadderExhausted` (report attached) only
        when every rung failed every attempt.
        """
        scheme = scheme or self.config.scheme
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r} (see SCHEME_TABLE)")
        report = RunReport() if report is None else report
        material = None
        if self.config.cacheable_results:
            material = self._outcome_material(
                prepared.fingerprint(), scheme, prepared.profile_mode
            )
            payload = self._load("outcome", material, report)
            if payload is not None:
                report.record_run(scheme, [scheme])
                report.record_final(scheme, payload["scheme"], "ok")
                outcome = engine.outcome_from_payload(payload, self.machine)
                return _answering(outcome, scheme, report)
        outcome = self._ladder(prepared, scheme, report)
        if material is not None:
            self._store(
                "outcome", material, engine.outcome_to_payload(outcome), report
            )
        return outcome

    def _ladder(
        self, prepared: PreparedProgram, scheme: str, report: RunReport
    ) -> SchemeOutcome:
        config = self.config
        ladder = list(SCHEMES[SCHEMES.index(scheme):]) if config.fallback else [scheme]
        report.record_run(scheme, ladder)
        unlocked_pass = (
            self._unlocked_pass(prepared, report)
            if self.config.cacheable_results else None
        )
        budget = self.budget
        last_failure = "never ran"
        for rung_index, rung in enumerate(ladder):
            for attempt in range(1, config.retries + 2):
                if attempt > 1 and budget is not None and budget.expired():
                    report.record_budget(
                        rung, "wall-clock budget exhausted; skipping retries"
                    )
                    break
                if self.faults is not None:
                    self.faults.begin_attempt(rung, attempt)
                seed_offset = config.seed + (attempt - 1) * RESEED_STRIDE
                report.start_attempt()
                try:
                    outcome = run_scheme(
                        prepared,
                        self.machine,
                        rung,
                        faults=self.faults,
                        unlocked_pass=unlocked_pass,
                        seed_offset=seed_offset,
                        budget=budget,
                    )
                except Exception as exc:  # noqa: BLE001 - the whole point
                    self._drain_faults(report)
                    last_failure = str(as_phase_error(exc, rung, rung))
                    report.record_attempt(
                        rung, attempt, "error", error=last_failure
                    )
                    continue
                self._drain_faults(report)
                if config.validate:
                    diag = check_scheme_outcome(prepared, outcome)
                    if diag.has_errors:
                        last_failure = (
                            f"validity check rejected {rung} output: "
                            f"{diag.summary()}"
                        )
                        report.record_attempt(
                            rung, attempt, "invalid",
                            phases=outcome.timings,
                            error=last_failure,
                            diagnostics=[
                                f"{d.rule}@{d.location()}" for d in diag.errors
                            ],
                        )
                        continue
                report.record_attempt(
                    rung, attempt, "ok", phases=outcome.timings
                )
                report.record_final(scheme, rung, "ok")
                return _answering(outcome, scheme, report)
            if rung_index + 1 < len(ladder):
                report.record_fallback(rung, ladder[rung_index + 1], last_failure)
        raise _exhausted(scheme, ladder, last_failure, report)

    def _drain_faults(self, report: RunReport) -> None:
        if self.faults is None:
            return
        for event in self.faults.drain_fired():
            report.record_fault(
                scheme=event["scheme"] or "?",
                attempt=event["attempt"],
                clause=event["clause"],
                phase=event["phase"],
                detail=event["detail"],
            )

    def run_all(
        self,
        prepared: PreparedProgram,
        schemes: Iterable[str] = engine.SWEEP_SCHEMES,
        report: Optional[RunReport] = None,
    ) -> Dict[str, SchemeOutcome]:
        """Run each distinct scheme once, in first-seen order (a caller
        passing a list that repeats a scheme doesn't pay for it twice);
        all runs share ``report`` and this pipeline's budget."""
        report = RunReport() if report is None else report
        return {
            name: self.run(prepared, name, report)
            for name in dict.fromkeys(schemes)
        }

    def compare(
        self,
        prepared: PreparedProgram,
        schemes: Iterable[str] = ("gdp", "profilemax", "naive"),
    ) -> Dict[str, float]:
        """Relative performance of each scheme vs the unified upper bound
        (the paper's headline metric; 1.0 = matches unified memory),
        computed from whatever rung each scheme ran as; the runs share one
        fresh :class:`RunReport`."""
        ordered = ["unified"] + [s for s in schemes if s != "unified"]
        outcomes = self.run_all(prepared, ordered)
        base = outcomes["unified"].cycles
        return {
            name: (base / outcomes[name].cycles if outcomes[name].cycles else 0.0)
            for name in dict.fromkeys(schemes)
        }


def _with_fingerprint(prepared: PreparedProgram, payload) -> PreparedProgram:
    """Seed the memoized fingerprint with the artifact's IR hash (the
    same SHA-256 of the module text), sparing a re-serialisation."""
    prepared._fingerprint = payload["ir_hash"]
    return prepared


def _exhausted(scheme, ladder, last_failure, report) -> LadderExhausted:
    report.record_final(scheme, None, "failed")
    return LadderExhausted(
        f"all rungs of ladder {ladder} failed for scheme {scheme!r}; "
        f"last failure: {last_failure}",
        run_report=report,
    )


def _answering(
    outcome: SchemeOutcome, requested: str, report: RunReport
) -> SchemeOutcome:
    outcome.requested = requested
    outcome.report = report
    return outcome
