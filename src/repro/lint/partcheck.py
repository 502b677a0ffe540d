"""Cross-phase partition/schedule validity checker.

Statically verifies the paper's pipeline invariants over GDP/RHOP/BUG and
scheme outputs:

* **Phase 1 (data):** every accessed object is homed exactly once on a
  real cluster; objects the access-pattern merge fused share one home;
  per-cluster data bytes stay within the configured imbalance cap and any
  finite scratchpad capacity.
* **Phase 2 (computation):** every locked memory operation sits on its
  object's home cluster, and partitioners report locks that are
  infeasible for the machine's resource tables.
* **Move insertion:** every cut DFG edge is accounted for by an explicit
  intercluster move; ``ICMOVE`` endpoints agree with the assignment.
* **Schedule:** every operation has a cluster with a function unit that
  can execute it, and the final list schedule respects dependence,
  intercluster-move latency, FU, and bus-bandwidth lower bounds.

All findings are :class:`Diagnostic` values tagged with the pipeline
phase that caused them, so a mispartitioned run reads as a located lint
report instead of a silently wrong cycle count.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Optional, Tuple

from ..analysis.memo import op_locations
from ..analysis.objects import ObjectTable
from ..ir import Module, Opcode, Operation
from ..machine import Machine
from ..partition.gdp import GDPConfig, PROFILE_MAX_IMBALANCE
from ..partition.locks import memory_locks
from ..partition.merges import MergeResult
from ..partition.rhop import RHOPResult
from ..schedule.depgraph import DependenceGraph
from ..schedule.listsched import ListScheduler
from .diagnostics import DiagnosticReport, register_rule

register_rule("object-home-missing", "accessed object has no home cluster")
register_rule("object-home-range", "object homed on a nonexistent cluster")
register_rule(
    "object-home-conflict", "merged objects homed on different clusters"
)
register_rule(
    "size-imbalance", "data partition exceeds the size-balance bound"
)
register_rule(
    "memory-capacity", "cluster memory capacity exceeded by homed objects"
)
register_rule(
    "lock-violation", "memory op placed off its object's home cluster"
)
register_rule(
    "infeasible-lock", "memory lock names a nonexistent cluster"
)
register_rule("unassigned-op", "operation missing from the assignment")
register_rule(
    "assignment-range", "operation assigned to a nonexistent cluster"
)
register_rule(
    "infeasible-resources",
    "block demands more slots than one cluster issues",
)
register_rule("useless-icmove", "intercluster move with no consumer")
register_rule(
    "icmove-mismatch", "intercluster move source/destination disagree"
)
register_rule(
    "icmove-bad-source", "intercluster move reads an unavailable value"
)
register_rule(
    "cut-edge-unmoved",
    "value crosses clusters with no intercluster move",
)
register_rule("schedule-failure", "list scheduler failed on a block")
register_rule(
    "schedule-infeasible", "schedule violates machine issue limits"
)


# -- phase 1: data partition ---------------------------------------------------------


def check_data_partition(
    objects: ObjectTable,
    object_home: Dict[str, int],
    machine: Machine,
    size_imbalance: Optional[float] = None,
    merge: Optional[MergeResult] = None,
    phase: str = "gdp",
) -> DiagnosticReport:
    """Verify the phase-1 contract: one home per object, merged groups
    co-located, and data bytes balanced/capacity-feasible."""
    report = DiagnosticReport()
    k = machine.num_clusters

    for obj_id in objects.accessed_ids():
        if obj_id not in object_home:
            report.error(
                "object-home-missing",
                f"accessed object {obj_id} has no home cluster",
                phase=phase,
                hint="every accessed object must be homed exactly once; "
                "its memory operations cannot be locked",
            )
    for obj_id, cluster in sorted(object_home.items()):
        if not (0 <= cluster < k):
            report.error(
                "object-home-range",
                f"object {obj_id} homed on cluster {cluster}, but the "
                f"machine has clusters 0..{k - 1}",
                phase=phase,
            )

    if merge is not None:
        for group in merge.object_groups():
            homes = {
                object_home[o]
                for o in group.object_ids
                if o in object_home
            }
            if len(homes) > 1:
                objs = ", ".join(sorted(group.object_ids))
                report.error(
                    "object-home-conflict",
                    f"merged objects {{{objs}}} are homed on clusters "
                    f"{sorted(homes)} — effectively homed twice",
                    phase=phase,
                    hint="the access-pattern merge made these objects one "
                    "atomic placement unit; split homes force transfers "
                    "the estimator never modelled",
                )

    loads = [0.0] * k
    for obj_id, cluster in object_home.items():
        if obj_id in objects and 0 <= cluster < k:
            loads[cluster] += objects[obj_id].size

    if size_imbalance is not None and k > 1:
        total = float(objects.total_size())
        cap = size_imbalance * total / k
        largest = _largest_atom_bytes(objects, merge)
        for cluster, used in enumerate(loads):
            if used > cap + largest:
                report.error(
                    "size-imbalance",
                    f"cluster {cluster} holds {used:.0f} data bytes, over "
                    f"the {size_imbalance:.2f}x cap ({cap:.0f}) even after "
                    f"granting one atomic group ({largest:.0f} bytes) of "
                    "slack",
                    phase=phase,
                )
            elif used > cap:
                report.warning(
                    "size-imbalance",
                    f"cluster {cluster} holds {used:.0f} data bytes, above "
                    f"the {size_imbalance:.2f}x cap ({cap:.0f})",
                    phase=phase,
                    hint="an oversized atomic group can force this; raise "
                    "the imbalance knob if intended",
                )

    for cluster, config in enumerate(machine.clusters):
        if config.memory_bytes is not None and loads[cluster] > config.memory_bytes:
            report.error(
                "memory-capacity",
                f"cluster {cluster} homes {loads[cluster]:.0f} data bytes "
                f"but its scratchpad holds only {config.memory_bytes}",
                phase=phase,
            )
    return report


def _largest_atom_bytes(
    objects: ObjectTable, merge: Optional[MergeResult]
) -> float:
    """Bytes of the largest unsplittable placement unit."""
    if merge is not None:
        sizes = [
            objects.size_of(g.object_ids) for g in merge.object_groups()
        ]
        if sizes:
            return float(max(sizes))
    return float(max((o.size for o in objects), default=0))


# -- phase 2: computation locks ------------------------------------------------------


def check_memory_locks(
    module: Module,
    assignment: Dict[int, int],
    object_home: Dict[str, int],
    access_counts: Dict[str, int],
) -> DiagnosticReport:
    """Verify the phase-2 contract: every memory operation is placed on
    its object's home cluster (Section 3.4's hard lock)."""
    report = DiagnosticReport()
    for _uid, placed, cluster, (func, block, op) in misplaced_memory_ops(
        module, assignment, object_home, access_counts
    ):
        objs = ",".join(sorted(op.mem_objects()))
        report.error(
            "lock-violation",
            f"memory operation placed on cluster {placed} but its "
            f"object(s) {{{objs}}} are homed on cluster {cluster}",
            func=func, block=block, op=str(op), phase="rhop",
            hint="the computation partitioner must honour memory "
            "locks; a remote access has no hardware path",
        )
    return report


def misplaced_memory_ops(
    module: Module,
    assignment: Dict[int, int],
    object_home: Dict[str, int],
    access_counts: Dict[str, int],
) -> Iterator[Tuple[int, int, int, Tuple[str, str, Operation]]]:
    """``(uid, placed, home, (func, block, op))`` for every memory
    operation locked to ``home`` but placed on another cluster, in uid
    order.  Unplaced operations are skipped: coverage is
    :func:`check_moves`' job."""
    locations = op_locations(module)
    expected = memory_locks(module, object_home, access_counts)
    for uid, home in sorted(expected.items()):
        placed = assignment.get(uid)
        if placed is not None and placed != home:
            yield uid, placed, home, locations[uid]


def diagnose_lock_violations(
    result: RHOPResult, module: Module
) -> DiagnosticReport:
    """Convert a partitioner's recorded infeasible-lock reports into
    diagnostics attributed to the phase (``rhop`` or ``bug``) that hit
    them."""
    report = DiagnosticReport()
    locations = op_locations(module)
    for func_name, uid, cluster in result.lock_violations:
        loc = locations.get(uid)
        op_text = str(loc[2]) if loc else None
        block = loc[1] if loc else None
        report.error(
            "infeasible-lock",
            f"memory operation locked to cluster {cluster}, which has no "
            "unit of its function-unit class",
            func=func_name, block=block, op=op_text, phase=result.phase,
            hint="the data partition homed an object on a cluster whose "
            "resource table cannot execute its accesses",
        )
    return report


# -- move insertion and resources ----------------------------------------------------


def check_moves(
    module: Module,
    assignment: Dict[int, int],
    machine: Machine,
) -> DiagnosticReport:
    """Verify move insertion and per-cluster resource feasibility: every
    cut def-use edge is bridged by a copy, ICMOVE endpoints agree with the
    assignment, and every op's cluster owns a unit that can execute it."""
    report = DiagnosticReport()
    for func in module:
        defs_clusters: Dict[int, set] = {}
        for op in func.operations():
            if op.dest is not None and op.uid in assignment:
                defs_clusters.setdefault(op.dest.vid, set()).add(
                    assignment[op.uid]
                )
        param_vids = {p.vid for p in func.params}

        for block in func:
            for op in block.ops:
                if op.uid not in assignment:
                    report.error(
                        "unassigned-op",
                        "operation has no cluster assignment",
                        func=func.name, block=block.name, op=str(op),
                        phase="moves",
                        hint="the scheduler would crash on this block",
                    )
                    continue
                cluster = assignment[op.uid]
                if not (0 <= cluster < machine.num_clusters):
                    report.error(
                        "assignment-range",
                        f"operation assigned to cluster {cluster}, but the "
                        f"machine has clusters 0..{machine.num_clusters - 1}",
                        func=func.name, block=block.name, op=str(op),
                        phase="moves",
                    )
                    continue
                cls = machine.fu_class_of(op)
                if cls is not None and machine.units(cluster, cls) == 0:
                    report.error(
                        "infeasible-resources",
                        f"operation needs a {cls.value} unit but cluster "
                        f"{cluster} has none",
                        func=func.name, block=block.name, op=str(op),
                        phase="moves",
                        hint="no list schedule exists for this block on "
                        "this machine",
                    )
                if op.is_icmove():
                    _check_icmove(
                        report, func.name, block.name, op, cluster,
                        defs_clusters, param_vids,
                    )
                    continue  # an ICMOVE is itself the bridge for its src
                for src in op.register_srcs():
                    sources = defs_clusters.get(src.vid)
                    if not sources or src.vid in param_vids:
                        continue  # params arrive externally; defs checked
                    if cluster not in sources:
                        report.error(
                            "cut-edge-unmoved",
                            f"value {src} is defined on cluster(s) "
                            f"{sorted(sources)} but consumed on cluster "
                            f"{cluster} with no intercluster move",
                            func=func.name, block=block.name, op=str(op),
                            phase="moves",
                            hint="insert_intercluster_moves must place an "
                            "ICMOVE (or local copy) for this flow",
                        )
    return report


def _check_icmove(
    report: DiagnosticReport,
    func: str,
    block: str,
    op: Operation,
    cluster: int,
    defs_clusters: Dict[int, set],
    param_vids: set,
) -> None:
    src_cluster = op.attrs.get("from")
    dst_cluster = op.attrs.get("to")
    if src_cluster == dst_cluster:
        report.warning(
            "useless-icmove",
            f"intercluster move from cluster {src_cluster} to itself",
            func=func, block=block, op=str(op), phase="moves",
            hint="a same-cluster move should be a plain MOV; it wrongly "
            "pays bus latency and bandwidth",
        )
    if dst_cluster is not None and cluster != dst_cluster:
        report.error(
            "icmove-mismatch",
            f"ICMOVE annotated to={dst_cluster} but assigned to cluster "
            f"{cluster}",
            func=func, block=block, op=str(op), phase="moves",
        )
    if src_cluster is not None:
        for src in op.register_srcs():
            sources = defs_clusters.get(src.vid)
            if src.vid in param_vids or not sources:
                continue
            if src_cluster not in sources:
                report.error(
                    "icmove-bad-source",
                    f"ICMOVE claims its value comes from cluster "
                    f"{src_cluster} but {src} is defined on "
                    f"{sorted(sources)}",
                    func=func, block=block, op=str(op), phase="moves",
                )


# -- final schedule ------------------------------------------------------------------


def check_schedule(
    module: Module,
    assignment: Dict[int, int],
    machine: Machine,
) -> DiagnosticReport:
    """Re-schedule every block and verify the result against the three
    lower bounds no valid schedule may beat: the dependence critical path
    (which prices intercluster-move latency), per-(cluster, FU-class)
    issue slots, and intercluster bus bandwidth."""
    report = DiagnosticReport()
    scheduler = ListScheduler(machine)
    for func in module:
        for block in func:
            if not block.ops:
                continue
            if any(op.uid not in assignment for op in block.ops):
                continue  # reported as unassigned-op by check_moves
            graph = DependenceGraph(block, machine.latency_of)
            try:
                sched = scheduler.schedule_block(block, assignment, graph)
            except RuntimeError as exc:
                report.error(
                    "schedule-failure",
                    f"list scheduler could not converge: {exc}",
                    func=func.name, block=block.name, phase="schedule",
                    hint="usually an operation assigned to a cluster with "
                    "zero units of its FU class",
                )
                continue
            bound, reason = _schedule_lower_bound(
                block, assignment, machine, graph
            )
            if sched.length < bound:
                report.error(
                    "schedule-infeasible",
                    f"block schedule of {sched.length} cycles beats the "
                    f"{reason} lower bound of {bound} cycles",
                    func=func.name, block=block.name, phase="schedule",
                    hint="the cycle model is reporting impossible "
                    "numbers; distrust this evaluation",
                )
    return report


def _schedule_lower_bound(
    block: object,
    assignment: Dict[int, int],
    machine: Machine,
    graph: DependenceGraph,
) -> Tuple[int, str]:
    bound = graph.critical_path_length()
    reason = "dependence critical-path"

    usage: Dict[Tuple[int, object], int] = {}
    moves = 0
    for op in graph.ops:
        if op.opcode is Opcode.ICMOVE:
            moves += 1
            continue
        cls = machine.fu_class_of(op)
        if cls is None:
            continue
        key = (assignment[op.uid], cls)
        usage[key] = usage.get(key, 0) + 1
    for (cluster, cls), count in usage.items():
        units = machine.units(cluster, cls)
        if units <= 0:
            continue  # infeasible-resources already reported
        fu_bound = math.ceil(count / units)
        if fu_bound > bound:
            bound, reason = fu_bound, f"cluster {cluster} {cls.value}-unit"
    if moves:
        bus_bound = math.ceil(moves / machine.network.bandwidth)
        if bus_bound > bound:
            bound, reason = bus_bound, "intercluster bus bandwidth"
    return bound, reason


# -- whole-outcome entry point -------------------------------------------------------

#: Per-scheme validity contracts: (data phase, merge-group check, the
#: size-balance cap its homes must honour or None).
_SCHEME_CONTRACTS = {
    "gdp": ("gdp", True, GDPConfig().size_imbalance),
    "profilemax": ("profile-max homing", True, PROFILE_MAX_IMBALANCE),
    "naive": ("naive post-pass homing", False, None),
    "unified": (None, False, None),
}


def check_scheme_outcome(
    prepared: "object",
    outcome: "object",
) -> DiagnosticReport:
    """Check a full :class:`SchemeOutcome` against every invariant that
    applies to its scheme.

    ``prepared`` supplies the object table / merge / access counts;
    ``outcome`` supplies machine, module, assignment, and object homes.
    """
    report = DiagnosticReport()
    scheme = getattr(outcome, "scheme", "?")
    data_phase, check_groups, cap = _SCHEME_CONTRACTS.get(
        scheme, (scheme, False, None)
    )

    if outcome.object_home is not None and data_phase is not None:
        report.extend(
            check_data_partition(
                prepared.objects,
                outcome.object_home,
                outcome.machine,
                size_imbalance=cap,
                merge=prepared.merge if check_groups else None,
                phase=data_phase,
            )
        )
        report.extend(
            check_memory_locks(
                outcome.module,
                outcome.assignment,
                outcome.object_home,
                prepared.object_access_counts(),
            )
        )
    report.extend(check_moves(outcome.module, outcome.assignment, outcome.machine))
    report.extend(
        check_schedule(outcome.module, outcome.assignment, outcome.machine)
    )
    return report
