"""Synthesize a profiler-compatible profile from static analysis alone.

:class:`StaticProfile` subclasses :class:`~repro.profiler.profiledata.ProfileData`
so GDP / ProfileMax / the unified partitioner can run with *zero*
interpreter executions: block counts come from the execution-bound
estimates, per-op object counts from the access-region analysis, and
heap sizes from constant ``MALLOC`` operands.

Two kinds of numbers live here, and they are deliberately separate:

* the inherited ``ProfileData`` counters hold finite heuristic
  *estimates* (partitioners need weights, not truth);
* the side tables (:attr:`~StaticProfile.op_weight_bounds`,
  :attr:`~StaticProfile.block_bounds`, :attr:`~StaticProfile.static_regions`)
  hold the *sound* bounds (possibly infinite) that the
  ``lint/staticdiff`` differ checks dynamic profiles against.

This module intentionally stays out of ``dataflow/__init__`` — importing
it pulls in :mod:`repro.profiler`, which itself imports the analysis
package, and eager re-export would cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .regions import ESTIMATE_CAP, Region
from ...ir import Constant, Opcode
from ...profiler.profiledata import ProfileData

if TYPE_CHECKING:
    from ..memo import Analyses


class StaticProfile(ProfileData):
    """A :class:`ProfileData` whose counters were derived, not measured."""

    def __init__(self) -> None:
        super().__init__()
        #: op uid -> sound upper bound on executions (``math.inf`` allowed).
        self.op_weight_bounds: Dict[int, float] = {}
        #: (func, block) -> sound upper bound on executions.
        self.block_bounds: Dict[Tuple[str, str], float] = {}
        #: op uid -> {object id -> static byte region (None = whole object)}.
        self.static_regions: Dict[int, Dict[str, Region]] = {}
        #: object id -> coalesced touched regions (None = whole object).
        self.object_static_regions: Dict[str, Optional[List[Tuple[int, int]]]] = {}

    def is_static(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<static profile: {len(self.block_counts)} blocks, "
            f"{len(self.op_weight_bounds)} bounded ops>"
        )


def build_static_profile(
    analyses: "Analyses", tier: Optional[str]
) -> StaticProfile:
    """Package the region analysis ``analyses.access_regions(tier)``
    (solved here on first request) as a profile.

    ``tier`` names the points-to solve that supplies per-op object sets;
    ``None`` takes them from the ops' ``mem_objects`` annotations.
    """
    regions = analyses.access_regions(tier)
    bounds = regions.bounds
    module = analyses.module
    profile = StaticProfile()

    for func in module:
        if not func.blocks:
            continue
        reachable = analyses.cfg(func).reachable()
        call_est = bounds.entry_estimates.get(func.name, 0)
        if call_est > 0 and func.name != "main":
            profile.call_counts[func.name] = call_est
        for block in func:
            if block.name not in reachable:
                continue
            est = bounds.block_estimate(func.name, block.name)
            profile.block_bounds[(func.name, block.name)] = bounds.block_bound(
                func.name, block.name
            )
            if est > 0:
                profile.block_counts[(func.name, block.name)] = est
                profile.instructions_executed = min(
                    profile.instructions_executed + est * len(block.ops),
                    ESTIMATE_CAP,
                )
            for op in block.ops:
                if op.opcode is Opcode.MALLOC and est > 0:
                    size_src = op.srcs[0]
                    if isinstance(size_src, Constant) and isinstance(
                        size_src.value, int
                    ):
                        site = op.attrs.get("site")
                        if site is not None:
                            profile.heap_sizes[f"h:{site}"] = min(
                                max(size_src.value, 1) * est, ESTIMATE_CAP
                            )

    for uid, per_obj in regions.op_regions.items():
        profile.op_weight_bounds[uid] = regions.op_weight_bounds.get(uid, 0.0)
        profile.static_regions[uid] = dict(per_obj)
        est = regions.op_weight_estimates.get(uid, 0)
        if est <= 0 or not per_obj:
            continue
        # The static analysis cannot apportion an op's accesses between
        # its may-target objects; split the weight evenly so every
        # candidate object carries partitioning pressure.
        share = max(est // len(per_obj), 1)
        for obj in sorted(per_obj):
            profile.record_access(uid, obj)
            profile.op_object_counts[uid][obj] = share

    profile.object_static_regions = regions.object_regions()
    return profile


__all__ = ["StaticProfile", "build_static_profile"]
