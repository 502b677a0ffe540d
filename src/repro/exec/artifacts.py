"""(De)hydration of pipeline intermediates for the artifact cache.

Operation uids are process-local (a global counter), so nothing keyed by
uid can cross a process boundary as-is.  Every artifact therefore re-keys
op-indexed data onto *stable op keys* — ``"func:block:index"`` positions
that survive the exact textual serialization round-trip of
:mod:`repro.ir.serialize` — and re-binds them onto the rehydrating
process's uids on load.

Three artifact kinds cover the pipeline:

``prepared``
    The annotated IR module (its serialized text carries the points-to
    ``mem_objects`` annotations), the execution profile re-keyed to
    stable ops, the points-to precision stats, and the coarsened
    access-pattern groups.  Rehydration skips the interpreter *and* the
    points-to solver — the two dominant cold costs.

``outcome``
    One scheme's finished product: the partitioned module text (with
    inserted ICMOVEs), the per-op cluster assignment (stable-keyed), the
    object homes, the evaluation totals, and the phase timings.
    Rehydration reconstructs a genuine
    :class:`~repro.pipeline.schemes.SchemeOutcome`.

``rhop``
    The unlocked RHOP pass (no memory locks, unified-memory target) that
    Unified, Naïve and Profile Max's first pass all start from: the
    per-op cluster assignment (stable-keyed) and the register homes.
    Rehydration re-binds them onto the scheme's own fresh module copy,
    so the pass runs once per (program, target machine, tier, profile,
    seed) instead of once per scheme.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Optional

from ..analysis import PointsToResult, PointsToStats
from ..ir import Module
from ..ir.serialize import dumps, loads
from ..profiler import ProfileData
from .cache import content_sha


# ---------------------------------------------------------------------------
# Stable op keys
# ---------------------------------------------------------------------------


def stable_op_keys(module: Module) -> Dict[int, str]:
    """uid -> ``"func:block:index"`` for every operation in ``module``."""
    keys: Dict[int, str] = {}
    for func in module:
        for block in func:
            for index, op in enumerate(block.ops):
                keys[op.uid] = f"{func.name}:{block.name}:{index}"
    return keys


def uids_by_stable_key(module: Module) -> Dict[str, int]:
    """``"func:block:index"`` -> uid (the inverse, on a fresh module)."""
    return {key: uid for uid, key in stable_op_keys(module).items()}


def module_fingerprint(module: Module) -> str:
    """Content hash of a module: SHA-256 of its exact serialized text.

    Any IR mutation — an op added, an annotation changed, a constant
    folded — changes the fingerprint, which is what invalidates every
    downstream cache entry keyed on it.
    """
    return content_sha(dumps(module))


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


def profile_to_payload(
    profile: ProfileData, op_keys: Dict[int, str]
) -> Dict[str, Any]:
    """Serialize a profile with op counters re-keyed to stable keys."""
    return {
        "block_counts": sorted(
            [func, block, count]
            for (func, block), count in profile.block_counts.items()
        ),
        "op_object_counts": sorted(
            [op_keys[uid], dict(sorted(counts.items()))]
            for uid, counts in profile.op_object_counts.items()
            if uid in op_keys
        ),
        "op_object_regions": sorted(
            [op_keys[uid],
             sorted([obj, lo, hi] for obj, (lo, hi) in regions.items())]
            for uid, regions in profile.op_object_regions.items()
            if uid in op_keys
        ),
        "heap_sizes": dict(sorted(profile.heap_sizes.items())),
        "call_counts": dict(sorted(profile.call_counts.items())),
        "instructions_executed": profile.instructions_executed,
        "output": list(profile.output),
    }


def profile_from_payload(
    payload: Dict[str, Any], uid_by_key: Dict[str, int]
) -> ProfileData:
    """Rebuild a profile with counters re-bound onto a fresh module."""
    profile = ProfileData()
    for func, block, count in payload["block_counts"]:
        profile.block_counts[(func, block)] = count
    for key, counts in payload["op_object_counts"]:
        uid = uid_by_key.get(key)
        if uid is not None:
            profile.op_object_counts[uid] = Counter(counts)
    for key, regions in payload.get("op_object_regions", []):
        uid = uid_by_key.get(key)
        if uid is not None:
            profile.op_object_regions[uid] = {
                obj: (lo, hi) for obj, lo, hi in regions
            }
    profile.heap_sizes.update(payload["heap_sizes"])
    profile.call_counts.update(payload["call_counts"])
    profile.instructions_executed = payload["instructions_executed"]
    profile.output = list(payload["output"])
    return profile


# ---------------------------------------------------------------------------
# Points-to
# ---------------------------------------------------------------------------


class CachedPointsTo(PointsToResult):
    """A rehydrated points-to solution.

    The per-op target sets live in the module's ``mem_objects``
    annotations (they survive serialization); the precision stats were
    computed by the original solve.  Per-register queries would need the
    solver's internal facts, which are deliberately not persisted — call
    :func:`repro.analysis.solve_pointsto` for those.
    """

    def __init__(self, tier: str, stats: Dict[str, Any]):
        self.tier = tier
        self._stats = PointsToStats(**stats)

    def points_to(self, func, reg):
        raise NotImplementedError(
            "cached points-to artifacts persist per-op sets only; "
            "re-solve with repro.analysis.solve_pointsto for "
            "per-register queries"
        )

    def objects_for_op(self, func, op):
        return op.attrs.get("mem_objects", frozenset())

    def stats(self) -> PointsToStats:
        return self._stats


# ---------------------------------------------------------------------------
# Prepared programs
# ---------------------------------------------------------------------------


def prepared_key_material(
    source: str,
    name: str,
    pointsto_tier: str,
    max_steps: int = 50_000_000,
    profile: str = "dynamic",
) -> Dict[str, Any]:
    """Cache key inputs for a prepared program (compile options are the
    :meth:`PreparedProgram.from_source` defaults the engine always uses).
    ``profile`` separates interpreted profiles from statically derived
    ones — their counters differ, so they must never share an artifact."""
    return {
        "kind": "prepared",
        "source_sha": content_sha(source),
        "name": name,
        "pointsto_tier": pointsto_tier,
        "max_steps": max_steps,
        "profile": profile,
    }


def prepared_to_payload(prepared) -> Dict[str, Any]:
    """Serialize a :class:`~repro.pipeline.PreparedProgram`."""
    module_text = dumps(prepared.module)
    op_keys = stable_op_keys(prepared.module)
    return {
        "name": prepared.module.name,
        "pointsto_tier": prepared.pointsto_tier,
        "profile_mode": "static" if prepared.profile.is_static() else "dynamic",
        "ir_hash": content_sha(module_text),
        "module_text": module_text,
        "profile": profile_to_payload(prepared.profile, op_keys),
        "pointsto_stats": prepared.pointsto.stats().to_dict(),
    }


def prepared_from_payload(payload: Dict[str, Any]):
    """Rehydrate a :class:`PreparedProgram` without interpreting or
    re-solving points-to (the module text carries the annotations)."""
    from ..pipeline.prepared import PreparedProgram

    module = loads(payload["module_text"])
    pointsto = CachedPointsTo(
        payload["pointsto_tier"], payload["pointsto_stats"]
    )
    if payload.get("profile_mode", "dynamic") == "static":
        # Static profiles are pure functions of the annotated module, and
        # rebuilding them is cheap (no interpretation) — cheaper and more
        # robust than persisting the infinite-valued bound tables.
        return PreparedProgram(
            module, pointsto=pointsto, profile_mode="static",
            pointsto_tier=payload["pointsto_tier"],
        )
    profile = profile_from_payload(
        payload["profile"], uids_by_stable_key(module)
    )
    return PreparedProgram(
        module, profile=profile, pointsto=pointsto,
        pointsto_tier=payload["pointsto_tier"],
    )


# ---------------------------------------------------------------------------
# Scheme outcomes
# ---------------------------------------------------------------------------


def outcome_key_material(
    ir_hash: str,
    machine,
    pointsto_tier: str,
    scheme: str,
    seed: int,
    profile: str = "dynamic",
) -> Dict[str, Any]:
    """Cache key inputs for one scheme outcome: the paper sweep's cell
    coordinates — IR content, machine config, tier, scheme, seed — plus
    the profile the run used (a static and a dynamic profile of one
    module partition differently)."""
    return {
        "kind": "outcome",
        "ir_hash": ir_hash,
        "machine": machine.fingerprint(),
        "pointsto_tier": pointsto_tier,
        "scheme": scheme,
        "seed": seed,
        "profile": profile,
        # Key/payload schema revision: bumping it retires artifacts that
        # predate a field the engine now reads or keys on (v2 added the
        # data-movement roofline summary, v3 the profile mode).
        "schema": 3,
    }


def outcome_to_payload(outcome) -> Dict[str, Any]:
    """Serialize a :class:`~repro.pipeline.schemes.SchemeOutcome`."""
    module_text = dumps(outcome.module)
    op_keys = stable_op_keys(outcome.module)
    return {
        "scheme": outcome.scheme,
        "module_text": module_text,
        "assignment": sorted(
            [op_keys[uid], cluster]
            for uid, cluster in outcome.assignment.items()
            if uid in op_keys
        ),
        "object_home": (
            dict(sorted(outcome.object_home.items()))
            if outcome.object_home is not None
            else None
        ),
        "eval": {
            "cycles": outcome.eval.cycles,
            "dynamic_moves": outcome.eval.dynamic_moves,
            "static_moves": outcome.eval.static_moves,
            "blocks": sorted(
                [func, block, stats.length, stats.frequency, stats.moves]
                for (func, block), stats in outcome.eval.blocks.items()
            ),
        },
        "timings": dict(sorted(outcome.timings.items())),
        "rhop_runs": outcome.rhop_runs,
        "roofline": (
            dict(sorted(outcome.roofline.items()))
            if outcome.roofline is not None
            else None
        ),
    }


def outcome_from_payload(payload: Dict[str, Any], machine):
    """Rehydrate a full :class:`SchemeOutcome` (module, assignment,
    homes, eval) from its artifact."""
    from ..evalmodel.cycles import BlockStats, EvalResult
    from ..pipeline.schemes import SchemeOutcome

    module = loads(payload["module_text"])
    uid_by_key = uids_by_stable_key(module)
    assignment = {
        uid_by_key[key]: cluster for key, cluster in payload["assignment"]
    }
    eval_result = EvalResult()
    eval_result.cycles = payload["eval"]["cycles"]
    eval_result.dynamic_moves = payload["eval"]["dynamic_moves"]
    eval_result.static_moves = payload["eval"]["static_moves"]
    for func, block, length, frequency, moves in payload["eval"]["blocks"]:
        eval_result.blocks[(func, block)] = BlockStats(
            length, frequency, moves
        )
    object_home: Optional[Dict[str, int]] = payload["object_home"]
    outcome = SchemeOutcome(
        payload["scheme"],
        machine,
        module,
        assignment,
        dict(object_home) if object_home is not None else None,
        eval_result,
        dict(payload["timings"]),
        payload["rhop_runs"],
    )
    roofline = payload.get("roofline")
    outcome.roofline = dict(roofline) if roofline is not None else None
    return outcome


# ---------------------------------------------------------------------------
# The unlocked RHOP pass
# ---------------------------------------------------------------------------


def rhop_key_material(
    ir_hash: str,
    target,
    pointsto_tier: str,
    profile: str,
    seed: int,
) -> Dict[str, Any]:
    """Cache key inputs for one unlocked RHOP pass: IR content, the
    *target* machine (the unified-memory copy RHOP partitions for), tier,
    the profile mode whose block frequencies order the regions, and the
    partitioner seed after any ladder reseed."""
    return {
        "kind": "rhop",
        "ir_hash": ir_hash,
        "machine": target.fingerprint(),
        "pointsto_tier": pointsto_tier,
        "profile": profile,
        "seed": seed,
        "schema": 1,
    }


def rhop_to_payload(result, module: Module) -> Dict[str, Any]:
    """Serialize an unlocked :class:`~repro.partition.rhop.RHOPResult`
    computed on ``module``: the assignment re-keyed to stable op keys and
    the register homes, both in their original insertion order.  An
    unlocked pass has no lock violations and its phase is ``rhop``, so
    neither is stored."""
    op_keys = stable_op_keys(module)
    return {
        "assignment": [
            [op_keys[uid], cluster]
            for uid, cluster in result.assignment.items()
        ],
        "vreg_home": [
            [func, [[vid, cluster] for vid, cluster in homes.items()]]
            for func, homes in result.vreg_home.items()
        ],
    }


def rhop_from_payload(payload: Dict[str, Any], module: Module):
    """Rebuild the :class:`~repro.partition.rhop.RHOPResult` of an
    unlocked pass on ``module``, a fresh copy of the module it was
    computed on (register numbering survives copies and serialization,
    so only the op keys need re-binding)."""
    from ..partition.rhop import RHOPResult

    uid_by_key = uids_by_stable_key(module)
    result = RHOPResult()
    result.assignment = {
        uid_by_key[key]: cluster for key, cluster in payload["assignment"]
    }
    result.vreg_home = {
        func: {vid: cluster for vid, cluster in homes}
        for func, homes in payload["vreg_home"]
    }
    return result
