"""Schedule-length estimation for RHOP clustering decisions.

RHOP's defining feature (Chu et al., PLDI 2003) is choosing cluster moves
by *estimated* schedule length rather than by edge cut: "These were used
in order to estimate the schedule length impact of clustering decisions
without requiring the need to actually schedule the code."

The estimate for one block under a tentative cluster assignment is

    max( critical path with intercluster penalties,
         per-cluster resource bounds,
         intercluster bus bandwidth bound )

Anchors model values that are live into the block from operations already
placed in other blocks: using such a value from the wrong cluster adds a
move at block entry.

The estimator flattens the block into index arrays once, when it is built.
:meth:`ScheduleEstimator.estimate_and_moves` scores any (possibly partial)
assignment from scratch; :class:`IncrementalEstimate` keeps the same
quantities for one complete assignment up to date move by move, which is
what makes RHOP's refinement loop affordable.  Both always agree: the
incremental ``(estimate, moves)`` equals the from-scratch pair on the same
assignment.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import truediv
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..machine import FUClass, Machine
from ..schedule.depgraph import DependenceGraph

INFEASIBLE = float("inf")

#: Critical-path latency the estimator assumes for one intercluster move.
#: RHOP's schedule estimates model a pipelined bus whose transfer latency
#: overlaps with surrounding iterations (the PLDI'03 formulation targets
#: latency-1 moves); the cycle-accurate evaluation still exposes the full
#: configured latency.  This optimism is what keeps the unified baseline
#: spreading computation at 5- and 10-cycle latencies, as in the paper.
ESTIMATOR_MOVE_OVERLAP_CAP = 2


def effective_move_latency(machine: "Machine") -> int:
    """Move latency as seen by schedule estimates (see above)."""
    return min(machine.move_latency, ESTIMATOR_MOVE_OVERLAP_CAP)


class Anchor:
    """A value live into the block, already homed on ``cluster``."""

    __slots__ = ("key", "cluster", "use_uids")

    def __init__(self, key, cluster: int, use_uids: Set[int]):
        self.key = key
        self.cluster = cluster
        self.use_uids = set(use_uids)


class ScheduleEstimator:
    """Estimates block schedule length under candidate assignments.

    Operations are addressed by their position in block order (which is
    topological).  Cluster assignments passed in are ``uid -> cluster``
    dicts; internally they become lists indexed by position, with ``-1``
    for an unplaced operation.
    """

    def __init__(
        self,
        graph: DependenceGraph,
        machine: Machine,
        anchors: Iterable[Anchor] = (),
    ):
        self.machine = machine
        k = self.num_clusters = machine.num_clusters
        self.bandwidth = machine.network.bandwidth
        ops = graph.ops
        self.uids: List[int] = [op.uid for op in ops]
        self.index: Dict[int, int] = {uid: i for i, uid in enumerate(self.uids)}
        index = self.index

        # Resource slots are flattened: slot ``class * k + cluster``.
        classes = list(FUClass)
        class_index = {cls: j for j, cls in enumerate(classes)}
        self.units: List[int] = [
            machine.units(c, cls) for cls in classes for c in range(k)
        ]
        #: Divisors for the resource bound (a unit-less slot never holds
        #: ops in a feasible assignment, so any non-zero divisor will do).
        self._divisors = [u or 1 for u in self.units]
        #: ``slot_base[i]``: ``class * k`` of op ``i``, -1 for bus-only ops.
        self.slot_base: List[int] = []
        for op in ops:
            cls = machine.fu_class_of(op)
            self.slot_base.append(-1 if cls is None else class_index[cls] * k)
        self.latency: List[int] = [machine.latency_of(op) for op in ops]

        #: ``flow_in[i]`` / ``fixed_in[i]``: ``(pred_index, delay)`` per
        #: incoming flow / other edge.  A cut flow edge also pays the move
        #: latency; other edges never do.
        self.flow_in: List[List[Tuple[int, int]]] = []
        self.fixed_in: List[List[Tuple[int, int]]] = []
        for uid in self.uids:
            edges = graph.preds[uid]
            self.flow_in.append(
                [(index[e.src], e.delay) for e in edges if e.is_flow()]
            )
            self.fixed_in.append(
                [(index[e.src], e.delay) for e in edges if not e.is_flow()]
            )
        #: ``barrier``: position of an op that issues no earlier than every
        #: op before it (the block terminator), else -1.  Its delay-0 edges
        #: from those ops are replaced by a running maximum of start times.
        self.barrier = -1
        last = len(ops) - 1
        if last > 0 and len({p for p, d in self.fixed_in[last] if not d}) == last:
            self.barrier = last
            self.fixed_in[last] = [(p, d) for p, d in self.fixed_in[last] if d]
        self.flow_edges: List[Tuple[int, int]] = [
            (p, q) for q, edges in enumerate(self.flow_in) for p, _d in edges
        ]
        #: ``anchor_uses[i]``: ``(anchor_key_id, home_cluster)`` per anchor
        #: op ``i`` consumes; one small integer per distinct anchor key.
        key_ids: Dict[object, int] = {}
        self.anchor_uses: List[List[Tuple[int, int]]] = [[] for _ in ops]
        for anchor in anchors:
            key_id = key_ids.setdefault(anchor.key, len(key_ids))
            for uid in anchor.use_uids:
                if uid in index:
                    self.anchor_uses[index[uid]].append((key_id, anchor.cluster))
        self.num_anchor_keys = len(key_ids)

    def positions(self, uids: Iterable[int]) -> List[int]:
        """Block-order positions of ``uids``, ascending."""
        return sorted(self.index[uid] for uid in uids)

    # -- the from-scratch estimate -----------------------------------------------

    def estimate_and_moves(
        self, cluster_of: Dict[int, int], exposed: bool = False
    ) -> Tuple[float, int]:
        """``(estimate, move count)`` of one assignment in a single pass.

        The estimate is ``INFEASIBLE`` when an op sits on a cluster lacking
        its function-unit class; the move count is the number of static
        intercluster moves the assignment implies for the block.

        ``cluster_of`` may be *partial* (initial placement proceeds group
        by group): operations without an assignment contribute no resource
        pressure and their edges carry no intercluster penalty, so early
        placement decisions are unbiased by not-yet-placed code.

        ``exposed=True`` charges the full configured move latency instead
        of the optimistic pipelined-bus latency — used to arbitrate
        between finished candidate partitions."""
        get = cluster_of.get
        cluster = [get(uid, -1) for uid in self.uids]

        # Resource counts per (FU class, cluster) slot.
        counts = [0] * len(self.units)
        for base, c in zip(self.slot_base, cluster):
            if base >= 0 and c >= 0:
                counts[base + c] += 1
        infeasible = any(n and not u for n, u in zip(counts, self.units))

        # Bus: one move per distinct (producer, consumer-cluster) cut flow
        # pair, plus anchor values imported from other clusters.  Anchor
        # keys are numbered below zero so the two pair kinds never collide.
        pairs: Set[Tuple[int, int]] = set()
        for p, q in self.flow_edges:
            cp, cq = cluster[p], cluster[q]
            if cp != cq and cp >= 0 and cq >= 0:
                pairs.add((p, cq))
        for c, uses in zip(cluster, self.anchor_uses):
            if c >= 0:
                for key_id, home in uses:
                    if c != home:
                        pairs.add((-1 - key_id, c))
        moves = len(pairs)
        if infeasible:
            return INFEASIBLE, moves

        move_latency = (
            self.machine.move_latency if exposed
            else effective_move_latency(self.machine)
        )
        start = [0] * len(cluster)
        completion = self.critical_path(cluster, start, 0, 0, 0, move_latency)
        return self.bound(completion, counts, moves), moves

    def critical_path(
        self,
        cluster: List[int],
        start: List[int],
        first: int,
        completion: int,
        reach: int,
        move_latency: int,
    ) -> int:
        """Recompute ``start[first:]`` and return the block's completion.

        ``completion`` and ``reach`` are the largest completion and start
        time over ops before ``first``.  Cut flow edges (both ends placed,
        on different clusters) and anchors consumed away from their home
        pay ``move_latency``."""
        flow_in, fixed_in = self.flow_in, self.fixed_in
        latency, anchor_uses = self.latency, self.anchor_uses
        barrier = self.barrier
        for i in range(first, len(cluster)):
            c = cluster[i]
            t = reach if i == barrier else 0
            for _key_id, home in anchor_uses[i]:
                if c != home and c >= 0:
                    t = max(t, move_latency)
                    break
            for p, d in flow_in[i]:
                s = start[p] + d
                cp = cluster[p]
                if cp != c and cp >= 0 and c >= 0:
                    s += move_latency
                if s > t:
                    t = s
            for p, d in fixed_in[i]:
                s = start[p] + d
                if s > t:
                    t = s
            start[i] = t
            if t > reach:
                reach = t
            t += latency[i]
            if t > completion:
                completion = t
        return completion

    def bound(self, completion: int, counts: Sequence[int], moves: int) -> float:
        """The estimate of a feasible assignment: the largest of the
        critical path, the resource bounds and the bus bound."""
        res_bound = max(map(truediv, counts, self._divisors))
        return max(
            float(completion),
            math.ceil(res_bound),
            math.ceil(moves / self.bandwidth),
        )

    def estimate(self, cluster_of: Dict[int, int], exposed: bool = False) -> float:
        """Estimated schedule length (see :meth:`estimate_and_moves`).
        RHOP calls that and :meth:`incremental`; this stays because
        ``perfbench/spans.py`` wraps it and ``tests/test_estimator.py``
        uses it."""
        return self.estimate_and_moves(cluster_of, exposed)[0]

    def move_count(self, cluster_of: Dict[int, int]) -> int:
        """Static intercluster moves this (possibly partial) assignment
        implies for the block (see :meth:`estimate_and_moves`); kept,
        like :meth:`estimate`, for perfbench and the estimator tests."""
        return self.estimate_and_moves(cluster_of)[1]

    def incremental(self, cluster_of: Dict[int, int]) -> "IncrementalEstimate":
        """Move-by-move estimate state for a *complete* assignment."""
        return IncrementalEstimate(self, cluster_of)


class IncrementalEstimate:
    """The optimistic estimate of one complete assignment, kept current
    under group moves.

    State, all indexed by block-order position:

    - ``counts[slot]`` op counts per (FU class, cluster) slot (resource
      bound) and ``infeasible``, the number of ops placed on a cluster
      without a unit of their class;
    - ``consumers[p][cluster]`` flow-edge counts from producer ``p`` and
      ``anchor_refs[key][cluster]`` anchor-use counts: a (producer,
      consumer-cluster) or (anchor, cluster) pair costs one move while its
      refcount is positive and the cluster differs from the value's home;
    - per-op ``start`` times, and ``done`` / ``reach``, the running maxima
      of completion and start times in block order.

    :meth:`trial` scores moving a group to another cluster and restores
    the state; :meth:`commit` keeps the move.  Either touches only the
    counts and pairs of edges and anchors incident to the group, and
    recomputes start times from the group's first op onward (earlier ops
    cannot depend on later ones).  Invariant: ``key`` always equals
    ``estimator.estimate_and_moves(assignment)`` from scratch.
    """

    def __init__(self, estimator: ScheduleEstimator, cluster_of: Dict[int, int]):
        self.estimator = estimator
        self.cluster: List[int] = [cluster_of[uid] for uid in estimator.uids]
        self.move_latency = effective_move_latency(estimator.machine)
        k = estimator.num_clusters
        n = len(self.cluster)

        self.counts = [0] * len(estimator.units)
        for base, c in zip(estimator.slot_base, self.cluster):
            if base >= 0:
                self.counts[base + c] += 1
        self.infeasible = sum(
            count for count, u in zip(self.counts, estimator.units) if not u
        )

        self.consumers = [[0] * k for _ in range(n)]
        for p, q in estimator.flow_edges:
            self.consumers[p][self.cluster[q]] += 1
        self.moves = sum(
            1
            for refs, home in zip(self.consumers, self.cluster)
            for c, count in enumerate(refs)
            if count and c != home
        )
        self.anchor_refs = [[0] * k for _ in range(estimator.num_anchor_keys)]
        for c, uses in zip(self.cluster, estimator.anchor_uses):
            for key_id, home in uses:
                if c != home:
                    refs = self.anchor_refs[key_id]
                    refs[c] += 1
                    if refs[c] == 1:
                        self.moves += 1

        self.start = [0] * n
        self.done = [0] * n
        self.reach = [0] * n
        self.key = self._score(self._recompute(0))

    def assignment(self) -> Dict[int, int]:
        """The current assignment as ``uid -> cluster``."""
        return dict(zip(self.estimator.uids, self.cluster))

    # -- public moves ---------------------------------------------------------------

    def trial(self, group: Sequence[int], dst: int) -> Tuple[float, int]:
        """``(estimate, moves)`` with every op of ``group`` (ascending
        positions) on ``dst``; the state is left exactly as it was."""
        previous = [self.cluster[i] for i in group]
        self._assign(group, repeat(dst))
        if self.infeasible:
            key = (INFEASIBLE, self.moves)
        else:
            first = group[0]
            saved = self.start[first:]
            key = self._score(self._critical_path(first))
            self.start[first:] = saved
        self._assign(group, previous)
        return key

    def commit(self, group: Sequence[int], dst: int) -> Tuple[float, int]:
        """Move every op of ``group`` (ascending positions) to ``dst`` and
        return the new ``(estimate, moves)``."""
        self._assign(group, repeat(dst))
        self.key = self._score(self._recompute(group[0]))
        return self.key

    # -- internals -------------------------------------------------------------------

    def _assign(self, group: Sequence[int], targets: Iterable[int]) -> None:
        """Move each op of ``group`` to its target cluster, updating the
        resource counts and the refcounted move pairs."""
        est = self.estimator
        cluster, counts, units = self.cluster, self.counts, est.units
        slot_base, flow_in = est.slot_base, est.flow_in
        consumers, anchor_uses = self.consumers, est.anchor_uses
        moves = self.moves
        for i, dst in zip(group, targets):
            src = cluster[i]
            if src == dst:
                continue
            base = slot_base[i]
            if base >= 0:
                counts[base + src] -= 1
                counts[base + dst] += 1
                if not units[base + src]:
                    self.infeasible -= 1
                if not units[base + dst]:
                    self.infeasible += 1
            # As a consumer: its producers' pairs toward src and dst.
            for p, _d in flow_in[i]:
                refs, home = consumers[p], cluster[p]
                refs[src] -= 1
                if not refs[src] and src != home:
                    moves -= 1
                refs[dst] += 1
                if refs[dst] == 1 and dst != home:
                    moves += 1
            # As a producer: its home changes from src to dst.
            refs = consumers[i]
            if refs[src]:
                moves += 1
            if refs[dst]:
                moves -= 1
            for key_id, home in anchor_uses[i]:
                refs = self.anchor_refs[key_id]
                if src != home:
                    refs[src] -= 1
                    if not refs[src]:
                        moves -= 1
                if dst != home:
                    refs[dst] += 1
                    if refs[dst] == 1:
                        moves += 1
            cluster[i] = dst
        self.moves = moves

    def _critical_path(self, first: int) -> int:
        """Recompute ``start[first:]``; returns the block's completion."""
        before = first - 1
        return self.estimator.critical_path(
            self.cluster, self.start, first,
            self.done[before] if first else 0,
            self.reach[before] if first else 0,
            self.move_latency,
        )

    def _recompute(self, first: int) -> int:
        """Recompute start times and both running maxima from ``first``
        on; returns the block's completion."""
        completion = self._critical_path(first)
        start, latency = self.start, self.estimator.latency
        done, reach = self.done, self.reach
        finish = done[first - 1] if first else 0
        latest = reach[first - 1] if first else 0
        for i in range(first, len(start)):
            t = start[i]
            if t > latest:
                latest = t
            reach[i] = latest
            t += latency[i]
            if t > finish:
                finish = t
            done[i] = finish
        return completion

    def _score(self, completion: int) -> Tuple[float, int]:
        if self.infeasible:
            return INFEASIBLE, self.moves
        return self.estimator.bound(completion, self.counts, self.moves), self.moves
