"""Region-based Hierarchical Operation Partitioning (RHOP) — phase 2.

A reimplementation of the RHOP partitioner (Chu, Fan & Mahlke, PLDI 2003)
as described there and in Section 3.4 of the CGO 2006 paper, extended with
the memory-object locks the CGO paper adds: "we extended the RHOP method
to account for memory object locations in the schedule estimates.  When a
memory operation is considered for placement in an incorrect cluster, the
schedule length estimate would indicate an infeasible partitioning ...
Thus, all memory access operations will always be placed on their
assigned clusters."

Regions are basic blocks; blocks are processed in reverse postorder.
Per block the algorithm is the multilevel scheme of the RHOP paper:

1. **Slack-weighted coarsening** — dependence edges get weights inversely
   proportional to their slack ("A low slack between operations indicates
   that the edge is more critical"); operations are greedily grouped along
   heavy edges, one grouping per operation per stage.
2. **Initial assignment** of the coarsest groups by greedy schedule
   estimate.
3. **Uncoarsening with refinement** — at each level groups are moved
   across clusters when the schedule estimator says the move helps
   ("Uncoarsened groups of operations are considered for movement across
   partitions when they appear favorable in terms of reducing schedule
   length or resource saturation").

Cross-block consistency: the first placement of a virtual register's
defining operation fixes the register's *home*; later defs are locked to
it and uses from other blocks are modelled as anchors so the estimator
charges an intercluster move when they are consumed elsewhere.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..analysis.cfg import CFG
from ..analysis.dominators import DominatorTree
from ..analysis.loops import LoopInfo
from ..ir import Function, Module, Operation
from ..machine import Machine
from ..resilience.budget import budget_expired
from ..schedule.depgraph import DependenceGraph
from .estimator import Anchor, IncrementalEstimate, ScheduleEstimator
from .merges import UnionFind


#: Refinement passes per uncoarsening level (fewer when a pass helps nothing).
REFINE_PASSES = 3
#: A block is coarsened to at most ``max(COARSEST_GROUPS_PER_CLUSTER * k,
#: 4)`` groups.
COARSEST_GROUPS_PER_CLUSTER = 2
#: Randomised place/refine cycles per block; the best one is kept.
RESTARTS = 2
#: Passes over a function's regions: the first places every op, the rest
#: revisit each region knowing where every use landed.
FUNCTION_PASSES = 2


class RHOPConfig:
    """Seed and budget of the computation partitioner.

    ``budget`` is a cooperative :class:`repro.resilience.Budget`: the
    restart, global-pass, and refinement loops poll it and, on expiry,
    return the best complete assignment found so far instead of running
    to completion (anytime behaviour).  Every block always receives an
    assignment — expiry only trims optional improvement work.
    """

    def __init__(self, seed: int = 777, budget=None):
        self.seed = seed
        self.budget = budget

    def reseeded(self, offset: int, budget=None) -> "RHOPConfig":
        """A copy with the base seed bumped by ``offset`` (the resilient
        pipeline's retry knob); ``budget``, when given, replaces the
        copy's budget."""
        return RHOPConfig(
            seed=self.seed + offset,
            budget=budget if budget is not None else self.budget,
        )


class RHOPResult:
    """Cluster assignment for every operation plus register homes.

    ``phase`` names the computation partitioner that produced the result
    (``"rhop"`` or ``"bug"``) and ``lock_violations`` records memory locks
    the machine cannot actually honour as ``(func, op uid, cluster)``
    tuples — both consumed by the partition validity checker so findings
    are attributed to the phase that caused them.
    """

    def __init__(self, phase: str = "rhop"):
        self.assignment: Dict[int, int] = {}  # op uid -> cluster
        self.vreg_home: Dict[str, Dict[int, int]] = {}  # func -> vid -> cluster
        self.phase = phase
        self.lock_violations: List[Tuple[str, int, int]] = []

    def cluster_of(self, op: Operation) -> int:
        return self.assignment[op.uid]

    def homes_for(self, func_name: str) -> Dict[int, int]:
        return self.vreg_home.setdefault(func_name, {})


def record_infeasible_locks(
    machine: Machine,
    func: Function,
    mem_locks: Dict[int, int],
    result: RHOPResult,
) -> None:
    """Record every lock that forces an operation onto a cluster with no
    unit of its FU class.  Shared by RHOP and BUG — the one reporting path
    the validity checker reads (:func:`repro.lint.diagnose_lock_violations`).
    """
    for op in func.operations():
        cluster = mem_locks.get(op.uid)
        if cluster is None:
            continue
        cls = machine.fu_class_of(op)
        if cls is not None and machine.units(cluster, cls) == 0:
            result.lock_violations.append((func.name, op.uid, cluster))


class RHOP:
    """The region-level computation partitioner.

    ``block_freq(func, block)`` orders regions hottest-first so that hot
    loops choose the register homes and cold initialisation code adapts to
    them (not the other way round); without a profile the static
    loop-nesting estimate is used.
    """

    def __init__(
        self,
        machine: Machine,
        config: Optional[RHOPConfig] = None,
        block_freq: Optional[Callable[[str, str], float]] = None,
    ):
        self.machine = machine
        self.config = config or RHOPConfig()
        self.block_freq = block_freq

    # -- module / function driver ---------------------------------------------------

    def partition_module(
        self,
        module: Module,
        mem_locks: Optional[Dict[int, int]] = None,
    ) -> RHOPResult:
        """Partition every function.  ``mem_locks`` maps memory-operation
        uids to their required cluster (empty/None for unified memory)."""
        result = RHOPResult()
        for func in module:
            self.partition_function(func, result, mem_locks or {})
        return result

    def partition_function(
        self,
        func: Function,
        result: Optional[RHOPResult] = None,
        mem_locks: Optional[Dict[int, int]] = None,
    ) -> RHOPResult:
        result = result or RHOPResult()
        mem_locks = mem_locks or {}
        record_infeasible_locks(self.machine, func, mem_locks, result)
        homes = result.homes_for(func.name)
        cfg = CFG(func)
        rng = random.Random(self.config.seed)
        order = self._region_order(func, cfg)
        # Clusters of already-placed *uses* of values defined elsewhere:
        # vid -> cluster -> weighted use count.  Regions are visited
        # hottest-first, so producers placed later are pulled toward their
        # hot consumers through reverse anchors.  Subsequent global passes
        # revisit every region with complete placement knowledge, breaking
        # the first pass's greedy phase-ordering cascades.
        pending_uses: Dict[int, Dict[int, float]] = {}
        for gpass in range(FUNCTION_PASSES):
            if gpass > 0:
                if budget_expired(self.config.budget):
                    break  # pass 0 placed every op; skip global repair
                pending_uses = self._full_use_map(func, result.assignment)
                homes.clear()
            for name in order:
                block = func.blocks[name]
                if block.ops:
                    self._partition_block(
                        func, block, homes, mem_locks, result, rng, pending_uses
                    )
        return result

    def _full_use_map(self, func, assignment) -> Dict[int, Dict[int, float]]:
        """vid -> cluster -> use count over the whole placed function."""
        uses: Dict[int, Dict[int, float]] = {}
        for block in func:
            defined: Set[int] = set()
            for op in block.ops:
                for src in op.register_srcs():
                    if src.vid not in defined and op.uid in assignment:
                        per = uses.setdefault(src.vid, {})
                        c = assignment[op.uid]
                        per[c] = per.get(c, 0.0) + 1.0
                if op.dest is not None:
                    defined.add(op.dest.vid)
        return uses

    def _region_order(self, func: Function, cfg: CFG) -> List[str]:
        """Regions hottest-first (ties broken by reverse postorder)."""
        rpo = cfg.reverse_postorder()
        if self.block_freq is not None:
            freq = {name: self.block_freq(func.name, name) for name in rpo}
        else:
            loops = LoopInfo(cfg, DominatorTree(cfg))
            freq = {name: loops.static_frequency(name) for name in rpo}
        index = {name: i for i, name in enumerate(rpo)}
        return sorted(rpo, key=lambda n: (-freq[n], index[n]))

    # -- per-block multilevel partitioning -----------------------------------------------

    def _partition_block(
        self, func, block, homes, mem_locks, result, rng, pending_uses=None
    ) -> None:
        k = self.machine.num_clusters
        graph = DependenceGraph(block, self.machine.latency_of)
        uids = [op.uid for op in graph.ops]
        pending_uses = pending_uses if pending_uses is not None else {}

        if k == 1:
            for uid in uids:
                result.assignment[uid] = 0
            self._record_homes(func, block, homes, result)
            return

        locks = self._block_locks(block, homes, mem_locks)
        anchors = self._block_anchors(func, block, homes)
        anchors.extend(self._reverse_anchors(block, homes, pending_uses))
        estimator = ScheduleEstimator(graph, self.machine, anchors)

        # Coarsening is deterministic, so every restart shares its levels.
        levels = self._coarsen(graph, self._mandatory_groups(block, locks), locks)

        # Multi-start V-cycles: the estimate surface is full of plateaus,
        # so keep the best of a few randomised place/refine runs.
        best_cluster_of: Dict[int, int] = {}
        best_key = None
        for attempt in range(RESTARTS):
            if attempt > 0 and budget_expired(self.config.budget):
                break  # anytime: keep the best completed cycle
            attempt_rng = random.Random(rng.randrange(1 << 30) + attempt)
            cluster_of = self._one_block_cycle(
                levels, locks, estimator, attempt_rng
            )
            key = estimator.estimate_and_moves(cluster_of, exposed=True)
            if best_key is None or key < best_key:
                best_key = key
                best_cluster_of = cluster_of

        for uid in uids:
            result.assignment[uid] = best_cluster_of[uid]
        self._record_homes(func, block, homes, result)
        self._record_pending_uses(block, best_cluster_of, pending_uses)

    def _one_block_cycle(self, levels, locks, estimator, rng) -> Dict[int, int]:
        # Initial assignment on the coarsest level.
        coarsest = levels[-1]
        cluster_of: Dict[int, int] = {}
        order = sorted(coarsest, key=lambda g: -len(coarsest[g]))
        # Locked groups first so free groups see their pressure.
        order.sort(
            key=lambda g: 0 if self._group_lock(coarsest[g], locks) is not None else 1
        )
        for gid in order:
            members = coarsest[gid]
            lock = self._group_lock(members, locks)
            if lock is not None:
                choice = lock
            else:
                choice = self._best_cluster_for(
                    members, cluster_of, estimator, rng
                )
            for uid in members:
                cluster_of[uid] = choice

        # Uncoarsen with refinement at every level.  The initial
        # assignment above already covers every op, so on budget expiry
        # the remaining refinement levels can be skipped wholesale.
        state = estimator.incremental(cluster_of)
        for level_groups in reversed(levels):
            if budget_expired(self.config.budget):
                break
            self._refine_level(level_groups, state, locks, rng)
        return state.assignment()

    # -- locks, anchors, mandatory merges ------------------------------------------------

    def _block_locks(self, block, homes, mem_locks) -> Dict[int, int]:
        """Op uid -> forced cluster.  Memory locks dominate register homes."""
        locks: Dict[int, int] = {}
        for op in block.ops:
            if op.dest is not None and op.dest.vid in homes:
                locks[op.uid] = homes[op.dest.vid]
        for op in block.ops:
            if op.uid in mem_locks:
                locks[op.uid] = mem_locks[op.uid]
        return locks

    def _block_anchors(self, func, block, homes) -> List[Anchor]:
        """Anchors for values flowing into the block from placed code."""
        defined: Set[int] = set()
        external_uses: Dict[int, Set[int]] = {}
        for op in block.ops:
            for src in op.register_srcs():
                if src.vid not in defined:
                    external_uses.setdefault(src.vid, set()).add(op.uid)
            if op.dest is not None:
                defined.add(op.dest.vid)
        anchors = []
        for vid, uses in external_uses.items():
            if vid in homes:
                anchors.append(Anchor(("vreg", vid), homes[vid], uses))
        return anchors

    def _reverse_anchors(self, block, homes, pending_uses) -> List[Anchor]:
        """Anchors pulling a value's defining ops toward the cluster where
        its already-placed consumers (in hotter regions) live."""
        anchors: List[Anchor] = []
        for op in block.ops:
            if op.dest is None:
                continue
            vid = op.dest.vid
            if vid in homes:
                continue  # defs already locked to the home
            per_cluster = pending_uses.get(vid)
            if not per_cluster:
                continue
            best = max(sorted(per_cluster), key=lambda c: per_cluster[c])
            anchors.append(Anchor(("ruse", vid, op.uid), best, {op.uid}))
        return anchors

    def _record_pending_uses(self, block, cluster_of, pending_uses) -> None:
        """Register the placement of uses whose defining ops live in
        not-yet-partitioned regions."""
        defined: Set[int] = set()
        for op in block.ops:
            for src in op.register_srcs():
                if src.vid not in defined:
                    per = pending_uses.setdefault(src.vid, {})
                    c = cluster_of[op.uid]
                    per[c] = per.get(c, 0.0) + 1.0
            if op.dest is not None:
                defined.add(op.dest.vid)

    def _mandatory_groups(self, block, locks) -> Dict[int, Set[int]]:
        """Initial groups: defs of one register co-locate (move insertion
        then gives each register one primary home cluster)."""
        uf = UnionFind()
        rep_of_vreg: Dict[int, int] = {}
        for op in block.ops:
            uf.find(op.uid)
            if op.dest is not None:
                vid = op.dest.vid
                if vid in rep_of_vreg:
                    a, b = rep_of_vreg[vid], op.uid
                    # Never merge ops locked to different clusters.
                    if not self._lock_conflict(uf, locks, a, b):
                        uf.union(a, b)
                else:
                    rep_of_vreg[vid] = op.uid
        groups: Dict[int, Set[int]] = {}
        gid_of_root: Dict[int, int] = {}
        for op in block.ops:
            root = uf.find(op.uid)
            if root not in gid_of_root:
                gid_of_root[root] = len(gid_of_root)
            groups.setdefault(gid_of_root[root], set()).add(op.uid)
        return groups

    @staticmethod
    def _lock_conflict(uf, locks, a, b) -> bool:
        la = RHOP._set_lock(uf, locks, a)
        lb = RHOP._set_lock(uf, locks, b)
        return la is not None and lb is not None and la != lb

    @staticmethod
    def _set_lock(uf, locks, member) -> Optional[int]:
        # A group's lock is the lock of any member (consistent by invariant).
        root = uf.find(member)
        for uid, cluster in locks.items():
            if uf.find(uid) == root:
                return cluster
        return None

    def _group_lock(self, members: Set[int], locks: Dict[int, int]) -> Optional[int]:
        for uid in members:
            if uid in locks:
                return locks[uid]
        return None

    # -- coarsening ----------------------------------------------------------------------

    def _coarsen(
        self,
        graph: DependenceGraph,
        base_groups: Dict[int, Set[int]],
        locks: Dict[int, int],
    ) -> List[Dict[int, Set[int]]]:
        """Multilevel coarsening; returns [finest, ..., coarsest] levels."""
        k = self.machine.num_clusters
        target = max(COARSEST_GROUPS_PER_CLUSTER * k, 4)

        max_slack = 0
        for edge in graph.flow_edges():
            max_slack = max(max_slack, graph.slack(edge))

        # Group-level adjacency from slack-weighted flow edges.
        group_of: Dict[int, int] = {}
        for gid, members in base_groups.items():
            for uid in members:
                group_of[uid] = gid
        adj: Dict[Tuple[int, int], float] = {}
        for edge in graph.flow_edges():
            gs, gd = group_of[edge.src], group_of[edge.dst]
            if gs == gd:
                continue
            weight = max_slack - graph.slack(edge) + 1
            key = (min(gs, gd), max(gs, gd))
            adj[key] = adj.get(key, 0.0) + weight

        levels = [dict(base_groups)]
        groups = dict(base_groups)
        while len(groups) > target:
            matched: Set[int] = set()
            merges: List[Tuple[int, int]] = []
            for (a, b), _w in sorted(
                adj.items(), key=lambda kv: (-kv[1], kv[0])
            ):
                if a in matched or b in matched:
                    continue
                la = self._group_lock(groups[a], locks)
                lb = self._group_lock(groups[b], locks)
                if la is not None and lb is not None and la != lb:
                    continue
                matched.add(a)
                matched.add(b)
                merges.append((a, b))
            if not merges:
                break
            new_groups: Dict[int, Set[int]] = {}
            remap: Dict[int, int] = {}
            next_gid = 0
            for a, b in merges:
                new_groups[next_gid] = groups[a] | groups[b]
                remap[a] = remap[b] = next_gid
                next_gid += 1
            for gid, members in groups.items():
                if gid not in remap:
                    new_groups[next_gid] = members
                    remap[gid] = next_gid
                    next_gid += 1
            new_adj: Dict[Tuple[int, int], float] = {}
            for (a, b), w in adj.items():
                na, nb = remap[a], remap[b]
                if na != nb:
                    key = (min(na, nb), max(na, nb))
                    new_adj[key] = new_adj.get(key, 0.0) + w
            groups, adj = new_groups, new_adj
            levels.append(dict(groups))
        return levels

    # -- initial placement and refinement ---------------------------------------------------

    def _best_cluster_for(
        self,
        members: Set[int],
        cluster_of: Dict[int, int],
        estimator: ScheduleEstimator,
        rng: random.Random,
    ) -> int:
        """Greedy initial choice: the cluster minimising the (partial)
        schedule estimate over the groups placed so far.  The group is
        placed in ``cluster_of`` for each candidate and removed again."""
        k = self.machine.num_clusters
        best, best_key = 0, None
        order = list(range(k))
        rng.shuffle(order)
        for c in order:
            for uid in members:
                cluster_of[uid] = c
            # Estimate first; break plateau ties by communication (cut +
            # anchor moves) so placement follows affinity, not cluster ids.
            key = estimator.estimate_and_moves(cluster_of)
            if best_key is None or key < best_key:
                best, best_key = c, key
        for uid in members:
            del cluster_of[uid]
        return best

    def _refine_level(
        self,
        level_groups: Dict[int, Set[int]],
        state: IncrementalEstimate,
        locks: Dict[int, int],
        rng: random.Random,
    ) -> None:
        """Move whole groups across clusters while the estimate improves.

        Candidate moves are scored on the incremental ``state``, so a
        trial costs the group's incident edges plus the critical path from
        its first op on, not a full re-estimate of the block."""
        k = self.machine.num_clusters
        movable = [
            gid
            for gid, members in level_groups.items()
            if self._group_lock(members, locks) is None
        ]
        positions = {
            gid: state.estimator.positions(level_groups[gid]) for gid in movable
        }
        for _ in range(REFINE_PASSES):
            if budget_expired(self.config.budget):
                break
            improved = False
            rng.shuffle(movable)
            for gid in movable:
                if budget_expired(self.config.budget):
                    break  # trial moves dominate; stop mid-pass too
                group = positions[gid]
                src = state.cluster[group[0]]
                best_dst, best_key = None, state.key
                for dst in range(k):
                    if dst == src:
                        continue
                    key = state.trial(group, dst)
                    if key < best_key:
                        best_key = key
                        best_dst = dst
                if best_dst is not None:
                    state.commit(group, best_dst)
                    improved = True
            if not improved:
                break

    # -- home bookkeeping ---------------------------------------------------------------------

    def _record_homes(self, func, block, homes, result) -> None:
        """First definition placed fixes a register's home cluster; a
        parameter's home is the cluster of its first placed use."""
        for op in block.ops:
            if op.dest is not None and op.dest.vid not in homes:
                homes[op.dest.vid] = result.assignment[op.uid]
        param_vids = {p.vid for p in func.params}
        for op in block.ops:
            for src in op.register_srcs():
                if src.vid in param_vids and src.vid not in homes:
                    homes[src.vid] = result.assignment[op.uid]
