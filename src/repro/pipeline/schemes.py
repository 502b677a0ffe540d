"""The four object/computation partitioning schemes of Table 1.

| Algorithm   | Object partitioner        | Object assignment      | Computation |
|-------------|---------------------------|------------------------|-------------|
| GDP         | Global Data Partitioning  | (from graph partition) | RHOP        |
| Profile Max | RHOP (first pass)         | Greedy by dyn. freq    | RHOP        |
| Naïve       | none (post-pass moves)    | max-access, no balance | RHOP        |
| Unified     | n/a (single memory)       | n/a                    | RHOP        |

All four rows run through one skeleton, :func:`run_scheme`: place the
data objects, run RHOP on the scheme's own clone of the prepared module
(locked to the homes when there are any), apply Naïve's post-pass, then
insert intercluster moves and evaluate by profile-weighted list
scheduling.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..evalmodel import EvalResult, evaluate_module, roofline
from ..ir import Module
from ..machine import Machine
from ..partition.assign import insert_intercluster_moves
from ..partition.gdp import GDPConfig, PROFILE_MAX_IMBALANCE, gdp_partition
from ..partition.locks import memory_locks
from ..partition.rhop import RHOP, RHOPConfig, RHOPResult
from ..resilience.budget import Budget
from ..resilience.faults import FaultPlan
from ..resilience.report import PhaseTimer
from .prepared import PreparedProgram

#: ``unlocked_pass(rhop, module)`` answers the unlocked RHOP pass on a
#: fresh module copy — loaded from a shared artifact or computed with
#: ``rhop.partition_module(module)`` — so the schemes that start from it
#: (Unified, Naïve, Profile Max's first pass) can share one run.
UnlockedPass = Callable[[RHOP, Module], RHOPResult]

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
        #: :func:`run_scheme` once the move count is known.
        self.roofline: Optional[Dict[str, float]] = None

    @property
    def rhop_seconds(self) -> float:
        """Seconds spent in the detailed computation partitioner (the
        Section 4.5 compile-time metric), derived from :attr:`timings`.
        A pass answered by ``unlocked_pass`` counts what the hook took
        (a load, when the pass was shared), so measure compile time with
        the cache off."""
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
    object_home: Optional[Dict[str, int]] = None,
    faults: Optional[FaultPlan] = None,
    unlocked_pass: Optional[UnlockedPass] = None,
    seed_offset: int = 0,
    budget: Optional[Budget] = None,
) -> SchemeOutcome:
    """Run one named scheme end to end, in the three steps every Table-1
    row shares: place the data objects (GDP's graph partition; Profile
    Max's greedy homing after a unified RHOP pass; nobody for Naïve and
    Unified), run RHOP on a fresh copy of the module (locked to the homes
    when there are any), then apply Naïve's post-pass homing before
    moves are inserted and cycles evaluated.

    ``object_home`` overrides GDP's placement (the exhaustive search of
    Figure 9 and the ablations); the other schemes ignore it.  Schemes
    only partition: :func:`repro.lint.check_scheme_outcome` is the
    validity gate, which the :class:`~repro.pipeline.Pipeline` ladder
    runs when ``validate`` is on.  ``faults`` is a deterministic
    :class:`~repro.resilience.faults.FaultPlan`: ``raise`` clauses fire
    entering placement (phase = the scheme) and each RHOP pass
    (``rhop``), ``unlock``/``corrupt-homes`` on the homes a pass is
    locked to and on Naïve's post-pass homes.  ``unlocked_pass``, when
    given, answers every RHOP pass that has no locks (see
    :data:`UnlockedPass`); the :class:`~repro.pipeline.Pipeline` passes
    one backed by the artifact cache when outcomes are cacheable.
    ``seed_offset`` is added to both partitioners' base seeds (the
    ladder's retry knob) and ``budget`` is the cooperative deadline they
    poll.
    """
    if scheme not in SCHEME_TABLE:
        raise ValueError(f"unknown scheme {scheme!r} (see SCHEME_TABLE)")
    faults = faults or FaultPlan()
    machine = faults.machine_for(machine)
    timer = PhaseTimer()
    rhop_config = RHOPConfig().reseeded(seed_offset, budget=budget)

    if scheme == "gdp":
        if object_home is None:
            faults.maybe_raise("gdp")
            with timer.phase("gdp"):
                object_home = gdp_partition(
                    prepared.module,
                    prepared.objects,
                    machine.num_clusters,
                    block_freq=prepared.block_freq,
                    config=GDPConfig().reseeded(seed_offset, budget=budget),
                    merge=prepared.merge,
                    program_graph=prepared.program_graph,
                ).object_home
    elif scheme == "profilemax":
        module, uid_map, first, _ = _rhop(
            prepared, machine, rhop_config, faults, timer, scheme,
            unlocked_pass=unlocked_pass,
        )
        faults.maybe_raise("profilemax")
        op_counts = prepared.translated_op_counts(uid_map)
        with timer.phase("homes"):
            object_home = _greedy_profile_homes(
                prepared,
                _accesses_by_cluster(module, first.assignment, op_counts),
                machine,
            )
    else:
        faults.maybe_raise(scheme)
        object_home = None

    module, uid_map, result, object_home = _rhop(
        prepared, machine, rhop_config, faults, timer, scheme, object_home,
        unlocked_pass,
    )
    assignment = result.assignment
    if scheme == "naive":
        with timer.phase("homes"):
            object_home, assignment = _naive_post_pass(
                prepared, module, assignment, uid_map, machine, faults
            )

    # Insert moves and evaluate, then price the data movement against
    # the program's I/O lower bound (one memoized model per prepared
    # program serves all schemes).
    with timer.phase("finalize"):
        eval_result = finalize_and_evaluate(
            prepared, machine, module, assignment, result
        )
    outcome = SchemeOutcome(
        scheme, machine, module, assignment, object_home, eval_result,
        timer.timings, SCHEME_TABLE[scheme]["rhop_runs"],
    )
    outcome.roofline = roofline.roofline_for(prepared).report(
        outcome.dynamic_moves
    )
    return outcome


def _rhop(
    prepared: PreparedProgram,
    machine: Machine,
    rhop_config: RHOPConfig,
    faults: FaultPlan,
    timer: PhaseTimer,
    scheme: str,
    object_home: Optional[Dict[str, int]] = None,
    unlocked_pass: Optional[UnlockedPass] = None,
) -> Tuple[Module, Dict[int, int], RHOPResult, Optional[Dict[str, int]]]:
    """One RHOP pass on a fresh copy of the module: with ``object_home``
    memory operations are locked to their objects' clusters, without it
    RHOP sees one unified memory (and ``unlocked_pass``, when given,
    answers it).  Returns (copy, uid map, result, the homes the outcome
    records)."""
    module, uid_map = prepared.fresh_copy()
    locks = None
    target = machine.as_unified()
    if object_home is not None:
        accessed = prepared.object_access_counts()
        # Post-lock corruption models phase-1 output poisoning: the homes
        # the run records disagree with the locks RHOP honoured — exactly
        # the cross-phase inconsistency the validity checker detects.
        locks = faults.drop_locks(
            memory_locks(module, object_home, accessed), scheme
        )
        object_home = dict(faults.corrupt_homes(
            object_home, machine.num_clusters, scheme, accessed=accessed
        ))
        target = machine.as_partitioned()
    faults.maybe_raise("rhop")
    rhop = RHOP(target, rhop_config, prepared.block_freq)
    with timer.phase("rhop"):
        if locks is None and unlocked_pass is not None:
            result = unlocked_pass(rhop, module)
        else:
            result = rhop.partition_module(module, mem_locks=locks)
    return module, uid_map, result, object_home


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


def _accesses_by_cluster(
    module: Module, assignment: Dict[int, int], op_counts
) -> Dict[str, Dict[int, float]]:
    """Dynamic accesses of each data object per cluster, under the
    computation partition ``assignment``."""
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
    return per_object


def _greedy_profile_homes(
    prepared: PreparedProgram,
    per_object: Dict[str, Dict[int, float]],
    machine: Machine,
) -> Dict[str, int]:
    """Greedy object homing in dynamic-frequency order with a balance cap
    (bytes per cluster at most :data:`PROFILE_MAX_IMBALANCE` of an even
    split), from the first-pass (unified) per-object access tally.

    Objects grouped exactly as GDP's coarsening grouped them (the paper:
    "The program-level graph of the application is created and coarsened
    as before, so objects are grouped together the same").
    """
    k = machine.num_clusters
    merge = prepared.merge
    groups = merge.object_groups()

    group_freq: Dict[int, Dict[int, float]] = {g.gid: {} for g in groups}
    for obj, per_cluster in per_object.items():
        gid = merge.group_of_object.get(obj)
        if gid is not None:
            per = group_freq.setdefault(gid, {})
            for cluster, dyn in per_cluster.items():
                per[cluster] = per.get(cluster, 0.0) + dyn

    total_bytes = float(prepared.objects.total_size())
    cap = PROFILE_MAX_IMBALANCE * total_bytes / k if total_bytes > 0 else float("inf")
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


def _naive_post_pass(
    prepared: PreparedProgram,
    module: Module,
    assignment: Dict[int, int],
    uid_map: Dict[int, int],
    machine: Machine,
    faults: FaultPlan,
) -> Tuple[Dict[str, int], Dict[int, int]]:
    """Naïve post-pass placement (Section 2 / Figure 2): home each object
    where the unified partition accesses it most (no balance) and rebind
    its memory operations there; the move inserter then materialises the
    transfers.  Returns (homes, rebound assignment)."""
    k = machine.num_clusters
    per_object = _accesses_by_cluster(
        module, assignment, prepared.translated_op_counts(uid_map)
    )
    object_home: Dict[str, int] = {}
    for obj in prepared.objects.ids():
        per = per_object.get(obj, {})
        object_home[obj] = (
            max(range(k), key=lambda c: (per.get(c, 0.0), -c)) if per else 0
        )

    accessed = prepared.object_access_counts()
    rebound = dict(assignment)
    rebound.update(faults.drop_locks(
        memory_locks(module, object_home, accessed), "naive"
    ))
    object_home = faults.corrupt_homes(object_home, k, "naive", accessed=accessed)
    return object_home, rebound
