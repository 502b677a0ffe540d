"""The four object/computation partitioning schemes of Table 1.

| Algorithm   | Object partitioner        | Object assignment      | Computation |
|-------------|---------------------------|------------------------|-------------|
| GDP         | Global Data Partitioning  | (from graph partition) | RHOP        |
| Profile Max | RHOP (first pass)         | Greedy by dyn. freq    | RHOP        |
| Naïve       | none (post-pass moves)    | max-access, no balance | RHOP        |
| Unified     | n/a (single memory)       | n/a                    | RHOP        |

Every scheme works on its own clone of the prepared module, ends with
intercluster move insertion, and is evaluated by profile-weighted list
scheduling.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..evalmodel import EvalResult, evaluate_module
from ..exec.runconfig import SCHEMES
from ..ir import Module
from ..machine import Machine
from ..partition.assign import insert_intercluster_moves
from ..partition.gdp import DataPartition, GDPConfig, gdp_partition
from ..partition.locks import memory_locks
from ..partition.rhop import RHOP, RHOPConfig, RHOPResult
from ..resilience.faults import FaultPlan
from ..resilience.report import PhaseTimer
from ..lint import (
    DiagnosticReport,
    PartitionValidityError,
    check_data_partition,
    check_memory_locks,
    check_moves,
    check_schedule,
    diagnose_lock_violations,
)
from .prepared import PreparedProgram

#: The paper's quality ladder, best rung first (Table 1 order): the
#: degradation order a failing scheme falls down.
LADDER = SCHEMES

#: Scheme descriptors used to regenerate Table 1.
SCHEME_TABLE = {
    "gdp": {
        "label": "GDP",
        "object_partitioner": "Global Data Partitioning",
        "object_assignment": "multilevel graph partition (size-balanced)",
        "computation_partitioner": "RHOP",
        "rhop_runs": 1,
    },
    "profilemax": {
        "label": "Profile Max",
        "object_partitioner": "RHOP",
        "object_assignment": "Greedy (dynamic frequency order)",
        "computation_partitioner": "RHOP",
        "rhop_runs": 2,
    },
    "naive": {
        "label": "Naive",
        "object_partitioner": "None - data object moves inserted "
        "post-computation partitioning",
        "object_assignment": "highest-access cluster (no balance)",
        "computation_partitioner": "RHOP",
        "rhop_runs": 1,
    },
    "unified": {
        "label": "Unified Memory",
        "object_partitioner": "N/A - data object moves not required for "
        "single, unified memory",
        "object_assignment": "N/A",
        "computation_partitioner": "RHOP",
        "rhop_runs": 1,
    },
}


class SchemeOutcome:
    """Everything one scheme produced for one benchmark/machine pair.

    ``timings`` maps pipeline-phase names (``"gdp"``, ``"homes"``,
    ``"rhop"``, ``"finalize"``) to wall seconds — the per-phase clocks the
    resilience run reports and the compile-time benchmarks both read, so
    the two can never drift apart.

    ``requested`` is the scheme the caller asked for (``scheme`` is the
    rung of the degradation ladder that produced this outcome) and
    ``report`` the :class:`~repro.resilience.RunReport` of the run that
    produced it; both are set by :class:`~repro.pipeline.Pipeline`.
    """

    def __init__(
        self,
        scheme: str,
        machine: Machine,
        module: Module,
        assignment: Dict[int, int],
        object_home: Optional[Dict[str, int]],
        eval_result: EvalResult,
        timings: Dict[str, float],
        rhop_runs: int,
    ):
        self.scheme = scheme
        self.machine = machine
        self.module = module
        self.assignment = assignment
        self.object_home = object_home
        self.eval = eval_result
        self.timings = dict(timings)
        self.rhop_runs = rhop_runs
        self.requested = scheme
        self.report = None
        #: Data-movement roofline summary (``evalmodel.roofline``), set by
        #: the scheme runners once the move count is known.
        self.roofline: Optional[Dict[str, float]] = None

    @property
    def rhop_seconds(self) -> float:
        """Seconds spent in the detailed computation partitioner (the
        Section 4.5 compile-time metric), derived from :attr:`timings`."""
        return self.timings.get("rhop", 0.0)

    @property
    def fell_back(self) -> bool:
        return self.scheme != self.requested

    @property
    def cycles(self) -> float:
        return self.eval.cycles

    @property
    def dynamic_moves(self) -> float:
        return self.eval.dynamic_moves

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.scheme}: {self.cycles:.0f} cycles>"


def run_scheme(
    prepared: PreparedProgram,
    machine: Machine,
    scheme: str,
    gdp_config: Optional[GDPConfig] = None,
    rhop_config: Optional[RHOPConfig] = None,
    object_home: Optional[Dict[str, int]] = None,
    pmax_imbalance: float = 1.15,
    validate: bool = False,
    faults: Optional[FaultPlan] = None,
) -> SchemeOutcome:
    """Run one named scheme end to end.

    ``object_home`` overrides the object placement (used by the exhaustive
    search of Figure 9 with the "gdp" second-pass machinery).

    With ``validate=True`` every phase output is checked against the
    paper's invariants (see :mod:`repro.lint.partcheck`) and a
    :class:`~repro.lint.PartitionValidityError` is raised at the first
    phase whose output violates one.

    ``faults`` installs a deterministic
    :class:`~repro.resilience.faults.FaultPlan` whose clauses fire at this
    function's injection points.
    """
    if faults is not None:
        machine = faults.machine_for(machine)
    runners = {
        "gdp": lambda: run_gdp(
            prepared, machine, gdp_config, rhop_config, object_home,
            validate=validate, faults=faults,
        ),
        "profilemax": lambda: run_profile_max(
            prepared, machine, rhop_config, pmax_imbalance,
            validate=validate, faults=faults,
        ),
        "naive": lambda: run_naive(
            prepared, machine, rhop_config, validate=validate, faults=faults
        ),
        "unified": lambda: run_unified(
            prepared, machine, rhop_config, validate=validate, faults=faults
        ),
    }
    if scheme not in runners:
        raise ValueError(f"unknown scheme {scheme!r} (see SCHEME_TABLE)")
    return runners[scheme]()


def _with_roofline(
    prepared: PreparedProgram, outcome: SchemeOutcome
) -> SchemeOutcome:
    """Price the outcome's data movement against the program's I/O lower
    bound (one memoized model per prepared program serves all schemes)."""
    from ..evalmodel.roofline import roofline_for

    outcome.roofline = roofline_for(prepared).report(outcome.dynamic_moves)
    return outcome


def _require_valid(report: DiagnosticReport, phase: str) -> None:
    """Raise :class:`PartitionValidityError` if ``report`` holds errors."""
    if report.has_errors:
        raise PartitionValidityError(report, phase=phase)


def _validate_computation(
    prepared: PreparedProgram,
    module: Module,
    result: RHOPResult,
    assignment: Dict[int, int],
    object_home: Optional[Dict[str, int]],
) -> None:
    """Post-phase-2 hook: locks honoured and feasible for the machine."""
    report = diagnose_lock_violations(result, module)
    if object_home is not None:
        report.extend(
            check_memory_locks(
                module, assignment, object_home,
                prepared.object_access_counts(), phase=result.phase,
            )
        )
    _require_valid(report, result.phase)


def _validate_final(
    machine: Machine, module: Module, assignment: Dict[int, int]
) -> None:
    """Post-move-insertion hook: cut edges bridged, schedule feasible."""
    _require_valid(check_moves(module, assignment, machine), "moves")
    _require_valid(check_schedule(module, assignment, machine), "schedule")


def finalize_and_evaluate(
    prepared: PreparedProgram,
    machine: Machine,
    module: Module,
    assignment: Dict[int, int],
    rhop_result: RHOPResult,
) -> EvalResult:
    """Insert intercluster moves and evaluate cycles.

    Public so ablations can plug alternative computation partitioners
    (e.g. BUG) into the same finishing pipeline."""
    for func in module:
        homes = rhop_result.vreg_home.get(func.name, {})
        param_homes = {
            p.vid: homes[p.vid] for p in func.params if p.vid in homes
        }
        insert_intercluster_moves(func, assignment, machine, param_homes)
    return evaluate_module(module, assignment, machine, prepared.block_freq)


def run_unified(
    prepared: PreparedProgram,
    machine: Machine,
    rhop_config: Optional[RHOPConfig] = None,
    validate: bool = False,
    faults: Optional[FaultPlan] = None,
) -> SchemeOutcome:
    """Upper bound: single multiported memory, plain RHOP."""
    timer = PhaseTimer()
    if faults is not None:
        faults.maybe_raise("unified")
    module, _uid_map = prepared.fresh_copy()
    rhop = RHOP(machine.as_unified(), rhop_config, prepared.block_freq)
    if faults is not None:
        faults.maybe_raise("rhop")
    with timer.phase("rhop"):
        result = rhop.partition_module(module)
    if validate:
        _validate_computation(prepared, module, result, result.assignment, None)
    with timer.phase("finalize"):
        eval_result = finalize_and_evaluate(
            prepared, machine, module, result.assignment, result
        )
    if validate:
        _validate_final(machine, module, result.assignment)
    return _with_roofline(prepared, SchemeOutcome(
        "unified", machine, module, result.assignment, None, eval_result,
        timer.timings, 1,
    ))


def run_gdp(
    prepared: PreparedProgram,
    machine: Machine,
    gdp_config: Optional[GDPConfig] = None,
    rhop_config: Optional[RHOPConfig] = None,
    object_home: Optional[Dict[str, int]] = None,
    validate: bool = False,
    faults: Optional[FaultPlan] = None,
) -> SchemeOutcome:
    """The paper's method: global data partitioning, then locked RHOP."""
    timer = PhaseTimer()
    if object_home is None:
        if faults is not None:
            faults.maybe_raise("gdp")
        with timer.phase("gdp"):
            data_partition = gdp_partition(
                prepared.module,
                prepared.objects,
                machine.num_clusters,
                block_freq=prepared.block_freq,
                config=gdp_config,
                merge=prepared.merge,
                program_graph=prepared.program_graph,
            )
        object_home = data_partition.object_home
    if validate:
        _require_valid(
            check_data_partition(
                prepared.objects, object_home, machine,
                size_imbalance=(gdp_config or GDPConfig()).size_imbalance,
                merge=prepared.merge, phase="gdp",
            ),
            "gdp",
        )
    module, _uid_map = prepared.fresh_copy()
    locks = memory_locks(module, object_home, prepared.object_access_counts())
    if faults is not None:
        # Post-lock corruption models phase-1 output poisoning: the homes
        # the run records disagree with the locks RHOP honoured — exactly
        # the cross-phase inconsistency the validity checker detects.
        locks = faults.drop_locks(locks, "gdp")
        object_home = faults.corrupt_homes(
            object_home, machine.num_clusters, "gdp",
            accessed=prepared.object_access_counts(),
        )
        faults.maybe_raise("rhop")
    rhop = RHOP(machine.as_partitioned(), rhop_config, prepared.block_freq)
    with timer.phase("rhop"):
        result = rhop.partition_module(module, mem_locks=locks)
    if validate:
        _validate_computation(
            prepared, module, result, result.assignment, object_home
        )
    with timer.phase("finalize"):
        eval_result = finalize_and_evaluate(
            prepared, machine, module, result.assignment, result
        )
    if validate:
        _validate_final(machine, module, result.assignment)
    return _with_roofline(prepared, SchemeOutcome(
        "gdp", machine, module, result.assignment, dict(object_home),
        eval_result, timer.timings, 1,
    ))


def run_profile_max(
    prepared: PreparedProgram,
    machine: Machine,
    rhop_config: Optional[RHOPConfig] = None,
    imbalance: float = 1.15,
    validate: bool = False,
    faults: Optional[FaultPlan] = None,
) -> SchemeOutcome:
    """Profile Max: RHOP assuming unified memory, greedy object homing by
    dynamic access frequency (with a memory-balance threshold), then a
    second locked RHOP run."""
    timer = PhaseTimer()
    module, uid_map = prepared.fresh_copy()
    rhop1 = RHOP(machine.as_unified(), rhop_config, prepared.block_freq)
    if faults is not None:
        faults.maybe_raise("rhop")
    with timer.phase("rhop"):
        first = rhop1.partition_module(module)

    if faults is not None:
        faults.maybe_raise("profilemax")
    op_counts = prepared.translated_op_counts(uid_map)
    with timer.phase("homes"):
        object_home = _greedy_profile_homes(
            prepared, module, first.assignment, op_counts, machine, imbalance
        )
    if validate:
        _require_valid(
            check_data_partition(
                prepared.objects, object_home, machine,
                size_imbalance=imbalance, merge=prepared.merge,
                phase="profilemax",
            ),
            "profilemax",
        )

    module2, _ = prepared.fresh_copy()
    locks = memory_locks(module2, object_home, prepared.object_access_counts())
    if faults is not None:
        locks = faults.drop_locks(locks, "profilemax")
        object_home = faults.corrupt_homes(
            object_home, machine.num_clusters, "profilemax",
            accessed=prepared.object_access_counts(),
        )
    rhop2 = RHOP(machine.as_partitioned(), rhop_config, prepared.block_freq)
    with timer.phase("rhop"):
        second = rhop2.partition_module(module2, mem_locks=locks)
    if validate:
        _validate_computation(
            prepared, module2, second, second.assignment, object_home
        )
    with timer.phase("finalize"):
        eval_result = finalize_and_evaluate(
            prepared, machine, module2, second.assignment, second
        )
    if validate:
        _validate_final(machine, module2, second.assignment)
    return _with_roofline(prepared, SchemeOutcome(
        "profilemax", machine, module2, second.assignment, object_home,
        eval_result, timer.timings, 2,
    ))


def _greedy_profile_homes(
    prepared: PreparedProgram,
    module: Module,
    assignment: Dict[int, int],
    op_counts,
    machine: Machine,
    imbalance: float,
) -> Dict[str, int]:
    """Greedy object homing in dynamic-frequency order with a balance cap.

    Objects grouped exactly as GDP's coarsening grouped them (the paper:
    "The program-level graph of the application is created and coarsened
    as before, so objects are grouped together the same").
    """
    k = machine.num_clusters
    merge = prepared.merge
    groups = merge.object_groups()

    # Dynamic accesses of each group per cluster, under the first-pass
    # (unified) computation partition.
    group_freq: Dict[int, Dict[int, float]] = {g.gid: {} for g in groups}
    group_by_object = merge.group_of_object
    for func in module:
        for op in func.operations():
            if not op.is_memory_access():
                continue
            counts = op_counts.get(op.uid)
            cluster = assignment[op.uid]
            for obj in op.mem_objects():
                gid = group_by_object.get(obj)
                if gid is None:
                    continue
                dyn = counts.get(obj, 0) if counts else 0
                per = group_freq.setdefault(gid, {})
                per[cluster] = per.get(cluster, 0.0) + dyn

    total_bytes = float(prepared.objects.total_size())
    cap = imbalance * total_bytes / k if total_bytes > 0 else float("inf")
    loads = [0.0] * k
    object_home: Dict[str, int] = {}

    ordered = sorted(
        groups,
        key=lambda g: -sum(group_freq.get(g.gid, {}).values()),
    )
    for group in ordered:
        per = group_freq.get(group.gid, {})
        preference = sorted(
            range(k), key=lambda c: (-per.get(c, 0.0), loads[c], c)
        )
        size = prepared.objects.size_of(group.object_ids)
        chosen = None
        for c in preference:
            if loads[c] + size <= cap or size > cap:
                chosen = c
                break
        if chosen is None:
            chosen = min(range(k), key=lambda c: loads[c])
        loads[chosen] += size
        for obj in group.object_ids:
            object_home[obj] = chosen
    return object_home


def run_naive(
    prepared: PreparedProgram,
    machine: Machine,
    rhop_config: Optional[RHOPConfig] = None,
    validate: bool = False,
    faults: Optional[FaultPlan] = None,
) -> SchemeOutcome:
    """Naïve post-pass placement (Section 2 / Figure 2): partition assuming
    unified memory, then home each object where it is accessed most and
    patch remote accesses with intercluster transfers.  No balance, and
    the computation partitioner never sees the data locations."""
    timer = PhaseTimer()
    if faults is not None:
        faults.maybe_raise("naive")
    module, uid_map = prepared.fresh_copy()
    rhop = RHOP(machine.as_unified(), rhop_config, prepared.block_freq)
    if faults is not None:
        faults.maybe_raise("rhop")
    with timer.phase("rhop"):
        result = rhop.partition_module(module)
    assignment = dict(result.assignment)

    op_counts = prepared.translated_op_counts(uid_map)
    k = machine.num_clusters
    with timer.phase("homes"):
        per_object: Dict[str, Dict[int, float]] = {}
        for func in module:
            for op in func.operations():
                if not op.is_memory_access():
                    continue
                counts = op_counts.get(op.uid)
                cluster = assignment[op.uid]
                for obj in op.mem_objects():
                    dyn = counts.get(obj, 0) if counts else 0
                    per = per_object.setdefault(obj, {})
                    per[cluster] = per.get(cluster, 0.0) + dyn

        object_home: Dict[str, int] = {}
        for obj in prepared.objects.ids():
            per = per_object.get(obj, {})
            object_home[obj] = (
                max(range(k), key=lambda c: (per.get(c, 0.0), -c)) if per else 0
            )

        # Post-pass: rebind each memory operation to its object's cluster;
        # the generic move inserter then materialises the transfers.
        access_counts = prepared.object_access_counts()
        rebinds = memory_locks(module, object_home, access_counts)
        if faults is not None:
            rebinds = faults.drop_locks(rebinds, "naive")
        for uid, cluster in rebinds.items():
            assignment[uid] = cluster
        if faults is not None:
            object_home = faults.corrupt_homes(
                object_home, k, "naive", accessed=access_counts
            )

    if validate:
        # Naïve has no balance contract: only coverage and lock honesty.
        _require_valid(
            check_data_partition(
                prepared.objects, object_home, machine, phase="naive"
            ),
            "naive",
        )
        _validate_computation(prepared, module, result, assignment, object_home)
    with timer.phase("finalize"):
        eval_result = finalize_and_evaluate(
            prepared, machine, module, assignment, result
        )
    if validate:
        _validate_final(machine, module, assignment)
    return _with_roofline(prepared, SchemeOutcome(
        "naive", machine, module, assignment, object_home, eval_result,
        timer.timings, 1,
    ))
