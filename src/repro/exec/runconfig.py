"""The unified run configuration fronting the execution engine.

A :class:`RunConfig` is one frozen value object holding every execution
knob that :class:`~repro.pipeline.Pipeline`,
:class:`~repro.pipeline.PreparedProgram` and the CLI consume: scheme,
points-to tier, machine preset, seed, budget, retries, fallback, fault
spec, validation, parallelism, and cache policy.

Design contract:

* ``to_json``/``from_json`` round-trip exactly; ``from_json`` rejects
  unknown fields and any ``schema_version`` it does not understand, so a
  serialized config is an auditable, forward-safe artifact.
* The artifact cache keys on the fields that can change a result, not on
  the config as a whole: :func:`repro.exec.artifacts.prepared_key_material`
  and :func:`~repro.exec.artifacts.outcome_key_material` take them one by
  one, which is what makes results content-addressable.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..analysis.pointsto import TIERS

#: Version of the RunConfig field set.  Bump when fields are added,
#: removed, or change meaning; ``from_dict`` refuses other versions and
#: the artifact cache treats entries written under other versions as
#: stale.
SCHEMA_VERSION = 2

#: The schemes a config may request (Table 1 order).
SCHEMES = ("gdp", "profilemax", "naive", "unified")

#: Profile sources: ``dynamic`` interprets the program (the paper's
#: execution profiling), ``static`` synthesizes a profile from the
#: abstract-interpretation access-region analysis — zero interpreter runs.
PROFILE_MODES = ("dynamic", "static")

#: The points-to precision tiers a config may name (the analysis's own
#: tuple, coarsest first).
POINTSTO_TIERS = TIERS

#: Cache policies: ``on`` read+write, ``off`` neither, ``readonly`` reads
#: but never writes, ``refresh`` recomputes and overwrites.
CACHE_POLICIES = ("on", "off", "readonly", "refresh")

#: Fields that change only *how* a result is obtained -- parallelism and
#: the artifact store -- never the result.  Job keys leave them out, and
#: :meth:`RunConfig.executed_by` takes them from the config that runs it.
EXECUTION_ONLY_FIELDS = ("jobs", "cache", "cache_dir")

#: Machine presets a config can name (see repro.machine.presets).
MACHINE_PRESETS = ("two_cluster", "four_cluster", "heterogeneous",
                   "single_cluster")


class RunConfigError(ValueError):
    """A config dict the front door refuses, with the offending fields.

    Subclasses :class:`ValueError` so every existing ``except ValueError``
    site keeps working; ``fields`` names the rejected keys so a service
    boundary can map the failure to a structured 400 instead of a
    traceback (the offending field travels with the error, machine
    readable).
    """

    def __init__(self, message: str, fields: tuple = ()):
        super().__init__(message)
        self.fields = tuple(fields)


@dataclass(frozen=True)
class RunConfig:
    """Frozen description of one scheme/bench execution policy.

    Fields that change the *result* (scheme, tier, profile, machine,
    latency, seed) feed the artifact-cache keys; fields that change only
    *how* it is obtained (jobs, cache policy, retries…) do not.
    """

    scheme: str = "gdp"
    pointsto_tier: str = "andersen"
    profile: str = "dynamic"
    machine: str = "two_cluster"
    latency: int = 5
    seed: int = 0
    max_seconds: Optional[float] = None
    retries: int = 1
    fallback: bool = True
    fault_spec: Optional[str] = None
    validate: bool = False
    jobs: Optional[int] = None
    cache: str = "on"
    cache_dir: Optional[str] = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise RunConfigError(
                f"RunConfig schema_version {self.schema_version} is not "
                f"supported (this build understands {SCHEMA_VERSION})",
                fields=("schema_version",),
            )
        if self.scheme not in SCHEMES:
            raise RunConfigError(
                f"unknown scheme {self.scheme!r}; one of {SCHEMES}",
                fields=("scheme",),
            )
        if self.pointsto_tier not in POINTSTO_TIERS:
            raise RunConfigError(
                f"unknown points-to tier {self.pointsto_tier!r}; "
                f"one of {POINTSTO_TIERS}",
                fields=("pointsto_tier",),
            )
        if self.profile not in PROFILE_MODES:
            raise RunConfigError(
                f"unknown profile mode {self.profile!r}; "
                f"one of {PROFILE_MODES}",
                fields=("profile",),
            )
        if self.machine not in MACHINE_PRESETS:
            raise RunConfigError(
                f"unknown machine preset {self.machine!r}; "
                f"one of {MACHINE_PRESETS}",
                fields=("machine",),
            )
        if self.cache not in CACHE_POLICIES:
            raise RunConfigError(
                f"unknown cache policy {self.cache!r}; "
                f"one of {CACHE_POLICIES}",
                fields=("cache",),
            )
        if self.retries < 0:
            raise RunConfigError("retries must be >= 0", fields=("retries",))
        if self.jobs is not None and self.jobs < 1:
            raise RunConfigError("jobs must be >= 1", fields=("jobs",))
        if self.max_seconds is not None and self.max_seconds < 0:
            raise RunConfigError(
                "max_seconds must be >= 0", fields=("max_seconds",)
            )

    # -- derived views ---------------------------------------------------------

    @property
    def effective_jobs(self) -> int:
        """``jobs`` resolved: explicit value, else ``os.cpu_count()``."""
        if self.jobs is not None:
            return self.jobs
        return os.cpu_count() or 1

    @property
    def cache_enabled(self) -> bool:
        return self.cache != "off"

    @property
    def cacheable_results(self) -> bool:
        """Whether this config's *outcomes* may be cached at all.

        Anytime budgets make results wall-clock dependent and fault specs
        deliberately perturb them; neither is a pure function of the
        cache key, so such runs never populate the outcome cache.
        """
        return (
            self.cache_enabled
            and self.max_seconds is None
            and self.fault_spec is None
        )

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy with ``changes`` applied (dataclasses.replace)."""
        return dataclasses.replace(self, **changes)

    def executed_by(self, executor: "RunConfig") -> "RunConfig":
        """This config with ``executor``'s execution-only fields: a job
        runs on its server's, a sweep's deterministic projection shows
        ``RunConfig(cache="off")``'s."""
        return self.replace(**{
            name: getattr(executor, name) for name in EXECUTION_ONLY_FIELDS
        })

    # -- builders for the objects the pipelines consume ------------------------

    def build_machine(self):
        """Instantiate the named machine preset at this latency."""
        from ..machine import presets

        if self.machine == "single_cluster":
            return presets.single_cluster_machine()
        factory = getattr(presets, f"{self.machine}_machine")
        return factory(move_latency=self.latency)

    def build_budget(self):
        """A fresh :class:`~repro.resilience.Budget`, or None."""
        if self.max_seconds is None:
            return None
        from ..resilience import Budget

        return Budget(max_seconds=self.max_seconds)

    def build_faults(self):
        """The parsed :class:`~repro.resilience.FaultPlan`, or None."""
        if not self.fault_spec:
            return None
        from ..resilience import FaultPlan

        return FaultPlan.parse(self.fault_spec)

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunConfig":
        """Strict parse: unknown fields are rejected (never silently
        dropped) and the schema version must match exactly."""
        if not isinstance(data, dict):
            raise RunConfigError(
                f"RunConfig must be a JSON object, got {data!r}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise RunConfigError(
                f"RunConfig schema_version {version} is not supported "
                f"(this build understands {SCHEMA_VERSION})",
                fields=("schema_version",),
            )
        if unknown:
            raise RunConfigError(
                f"unknown RunConfig field(s) {unknown} for schema_version "
                f"{version}",
                fields=tuple(unknown),
            )
        try:
            return cls(**data)
        except TypeError as exc:
            # A field of the wrong JSON type (e.g. retries="many") trips a
            # comparison inside __post_init__; surface it as the same
            # structured rejection instead of a bare TypeError.
            raise RunConfigError(f"malformed RunConfig: {exc}") from None

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))

    def describe(self) -> str:
        """Compact multi-line rendering for ``repro config show``."""
        lines = []
        for field in dataclasses.fields(self):
            lines.append(f"{field.name:15} {getattr(self, field.name)!r}")
        return "\n".join(lines)

