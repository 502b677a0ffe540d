"""Multilevel k-way graph partitioner (the METIS substitute).

The paper partitions its program-level graph with METIS: "METIS tries to
divide the nodes into separate partitions by minimizing the number of
edges cut while also trying to balance the node weights."  This module
implements the same multilevel scheme from scratch:

1. **Coarsening** — repeated heavy-edge matching collapses the graph until
   it is small;
2. **Initial partitioning** — greedy growth on the coarsest graph;
3. **Uncoarsening** — the assignment is projected back level by level and
   improved with Fiduccia–Mattheyses-style boundary refinement.

Each node carries one scalar weight (GDP uses data bytes, the paper's one
balance constraint); balance is enforced with a parameterisable imbalance
ratio — the knob Section 4.3 of the paper refers to ("allowing for more
imbalance of the resulting partition in METIS").  Nodes may be *fixed* to
a cluster; fixed nodes never move (used to honor pre-placed objects and
for ablation studies).
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Optional, Tuple

from ..resilience.budget import Budget, budget_expired

Node = Hashable

#: Coarsening stops once the graph has at most
#: ``max(COARSEN_TO, COARSEN_NODES_PER_CLUSTER * k)`` nodes.
COARSEN_TO = 24
COARSEN_NODES_PER_CLUSTER = 6
#: Boundary-refinement passes per level (fewer when a pass moves nothing).
REFINE_PASSES = 4
#: Independent V-cycles per partition; the best one is kept.
RESTARTS = 4


class PartitionGraph:
    """An undirected weighted graph with scalar node weights."""

    def __init__(self):
        self.weights: Dict[Node, float] = {}
        self.adj: Dict[Node, Dict[Node, float]] = {}
        self.fixed: Dict[Node, int] = {}

    def add_node(self, node: Node, weight: float) -> None:
        self.weights[node] = float(weight)
        self.adj.setdefault(node, {})

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        if u == v:
            return
        if u not in self.weights or v not in self.weights:
            raise KeyError("add_edge on unknown node")
        self.adj[u][v] = self.adj[u].get(v, 0.0) + weight
        self.adj[v][u] = self.adj[v].get(u, 0.0) + weight

    def fix(self, node: Node, cluster: int) -> None:
        self.fixed[node] = cluster

    def node_count(self) -> int:
        return len(self.weights)

    def total_weight(self) -> float:
        total = 0.0
        for w in self.weights.values():
            total += w
        return total

    def node_order(self) -> Dict[Node, int]:
        """Stable insertion-order index used for deterministic tie-breaks."""
        return {node: i for i, node in enumerate(self.weights)}

    def cut_weight(self, assignment: Dict[Node, int]) -> float:
        cut = 0.0
        order = self.node_order()
        for u, nbrs in self.adj.items():
            for v, w in nbrs.items():
                if order[u] < order[v] and assignment[u] != assignment[v]:
                    cut += w
        return cut


class _Level:
    """One coarsening level: the coarse graph plus the fine->coarse map."""

    def __init__(self, graph: PartitionGraph, projection: Dict[Node, Node]):
        self.graph = graph
        self.projection = projection  # fine node -> coarse node


class MultilevelPartitioner:
    """K-way multilevel partitioner with a node-weight balance constraint."""

    def __init__(
        self,
        k: int = 2,
        imbalance: float = 1.15,
        seed: int = 12345,
        budget: Optional[Budget] = None,
    ):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.imbalance = imbalance
        self.seed = seed
        #: Cooperative deadline (anytime behaviour): the first V-cycle
        #: always completes so an assignment always exists; on expiry the
        #: remaining restarts and refinement passes are skipped and the
        #: best assignment found so far is returned.
        self.budget = budget

    # -- public API --------------------------------------------------------------

    def partition(self, graph: PartitionGraph) -> Dict[Node, int]:
        """Partition the graph; returns node -> cluster in [0, k).

        Runs ``RESTARTS`` independent multilevel passes (different
        coarsening/initial-partition randomisation) and keeps the best
        result by (balance violation, cut weight) — multi-start V-cycles,
        as METIS does with multiple initial partitions."""
        if graph.node_count() == 0:
            return {}
        if self.k == 1:
            return {n: 0 for n in graph.weights}

        best: Optional[Dict[Node, int]] = None
        best_key = None
        for attempt in range(RESTARTS):
            if attempt > 0 and budget_expired(self.budget):
                break  # anytime: keep the best completed V-cycle
            assignment = self._one_cycle(graph, random.Random(self.seed + attempt))
            key = (self._violation(graph, assignment), graph.cut_weight(assignment))
            if best_key is None or key < best_key:
                best_key = key
                best = assignment
        assert best is not None
        return best

    def _one_cycle(self, graph: PartitionGraph, rng: random.Random) -> Dict[Node, int]:
        levels = self._coarsen(graph, rng)
        coarsest = levels[-1].graph if levels else graph
        assignment = self._initial_partition(coarsest, rng)
        assignment = self._refine(coarsest, assignment, rng)
        for level in reversed(levels):
            fine = self._fine_graph(level, levels, graph)
            projected = {
                node: assignment[level.projection[node]]
                for node in fine.weights
            }
            # On budget expiry keep projecting (the assignment must reach
            # the original graph's nodes) but skip the refinement work.
            assignment = (
                projected
                if budget_expired(self.budget)
                else self._refine(fine, projected, rng)
            )
        return assignment

    def _violation(self, graph: PartitionGraph, assignment: Dict[Node, int]) -> float:
        """Total relative overshoot of the balance constraint."""
        total = graph.total_weight()
        overshoot = 0.0
        if total <= 0:
            return overshoot
        cap = self.imbalance * total / self.k
        for load in partition_balance(graph, assignment, self.k):
            over = load - cap
            if over > 1e-9:
                overshoot += over / total
        return overshoot

    def _fine_graph(
        self, level: _Level, levels: List[_Level], original: PartitionGraph
    ) -> PartitionGraph:
        idx = levels.index(level)
        return original if idx == 0 else levels[idx - 1].graph

    # -- coarsening -----------------------------------------------------------------

    def _coarsen(self, graph: PartitionGraph, rng: random.Random) -> List[_Level]:
        levels: List[_Level] = []
        current = graph
        total = graph.total_weight()
        # Cap merged node weight so single coarse nodes stay movable.
        cap = max(total * 1.5 / self.k, 1.0) if total > 0 else float("inf")
        coarsen_to = max(COARSEN_TO, COARSEN_NODES_PER_CLUSTER * self.k)
        while current.node_count() > coarsen_to:
            matched: Dict[Node, Node] = {}
            order = list(current.weights)
            rng.shuffle(order)
            for node in order:
                if node in matched:
                    continue
                best = None
                best_w = 0.0
                for nbr, w in current.adj[node].items():
                    if nbr in matched or nbr == node:
                        continue
                    if not self._merge_allowed(current, node, nbr, cap):
                        continue
                    if w > best_w:
                        best, best_w = nbr, w
                if best is not None:
                    matched[node] = best
                    matched[best] = node
            pair_count = len(matched) // 2
            if pair_count == 0 or pair_count < 0.05 * current.node_count():
                break
            coarse, projection = self._contract(current, matched)
            levels.append(_Level(coarse, projection))
            current = coarse
        return levels

    def _merge_allowed(
        self, graph: PartitionGraph, u: Node, v: Node, cap: float
    ) -> bool:
        fu, fv = graph.fixed.get(u), graph.fixed.get(v)
        if fu is not None and fv is not None and fu != fv:
            return False
        return graph.weights[u] + graph.weights[v] <= cap

    def _contract(
        self, graph: PartitionGraph, matched: Dict[Node, Node]
    ) -> Tuple[PartitionGraph, Dict[Node, Node]]:
        coarse = PartitionGraph()
        projection: Dict[Node, Node] = {}
        counter = 0
        for node in graph.weights:
            if node in projection:
                continue
            partner = matched.get(node)
            group = (node,) if partner is None or partner in projection else (
                node,
                partner,
            )
            coarse_id = ("m", counter)
            counter += 1
            weight = 0.0
            fixed_cluster: Optional[int] = None
            for member in group:
                projection[member] = coarse_id
                weight += graph.weights[member]
                if member in graph.fixed:
                    fixed_cluster = graph.fixed[member]
            coarse.add_node(coarse_id, weight)
            if fixed_cluster is not None:
                coarse.fix(coarse_id, fixed_cluster)
        order = graph.node_order()
        for u, nbrs in graph.adj.items():
            for v, w in nbrs.items():
                cu, cv = projection[u], projection[v]
                if cu != cv and order[u] < order[v]:
                    coarse.add_edge(cu, cv, w)
        return coarse, projection

    # -- initial partition ----------------------------------------------------------------

    def _initial_partition(
        self, graph: PartitionGraph, rng: random.Random
    ) -> Dict[Node, int]:
        target = graph.total_weight() / self.k
        loads = [0.0] * self.k
        assignment: Dict[Node, int] = {}

        for node, cluster in graph.fixed.items():
            assignment[node] = cluster
            loads[cluster] += graph.weights[node]

        # Heaviest-first greedy: place each node where it minimises
        # (balance violation, then cut increase).
        order = sorted(
            (n for n in graph.weights if n not in assignment),
            key=lambda n: -graph.weights[n],
        )
        for node in order:
            best_cluster = 0
            best_key = None
            for c in range(self.k):
                violation = 0.0
                load_frac = 0.0
                if target > 0:
                    over = loads[c] + graph.weights[node] - self.imbalance * target
                    if over > 0:
                        violation = over / target
                    load_frac = loads[c] / target
                external = sum(
                    w
                    for nbr, w in graph.adj[node].items()
                    if assignment.get(nbr, c) != c
                )
                key = (violation, external, load_frac, rng.random())
                if best_key is None or key < best_key:
                    best_key = key
                    best_cluster = c
            assignment[node] = best_cluster
            loads[best_cluster] += graph.weights[node]
        return assignment

    # -- refinement -------------------------------------------------------------------------

    def _refine(
        self,
        graph: PartitionGraph,
        assignment: Dict[Node, int],
        rng: random.Random,
    ) -> Dict[Node, int]:
        target = graph.total_weight() / self.k
        max_node_w = max(graph.weights.values(), default=0.0)
        # The most a cluster may hold, rounding slack included.
        cap = (
            max(self.imbalance * target, max_node_w) + 1e-9
            if target > 0
            else float("inf")
        )
        loads = partition_balance(graph, assignment, self.k)

        assignment = dict(assignment)
        for _ in range(REFINE_PASSES):
            if budget_expired(self.budget):
                break
            moved = False
            order = [n for n in graph.weights if n not in graph.fixed]
            rng.shuffle(order)
            for node in order:
                src = assignment[node]
                w = graph.weights[node]
                # Gain of moving to each other cluster.
                conn = [0.0] * self.k
                for nbr, nw in graph.adj[node].items():
                    conn[assignment[nbr]] += nw
                fits = [
                    dst for dst in range(self.k)
                    if dst != src and loads[dst] + w <= cap
                ]
                best_dst = None
                best_gain = 0.0
                for dst in fits:
                    gain = conn[dst] - conn[src]
                    if gain > best_gain + 1e-12:
                        best_gain = gain
                        best_dst = dst
                if best_dst is None and fits and loads[src] > cap:
                    # Balance repair: allow a zero/negative-gain move out of
                    # an overloaded cluster into the lightest feasible one.
                    best_dst = min(fits, key=lambda c: loads[c])
                if best_dst is not None:
                    loads[src] -= w
                    loads[best_dst] += w
                    assignment[node] = best_dst
                    moved = True
            if not moved:
                break
        return assignment


def partition_balance(
    graph: PartitionGraph, assignment: Dict[Node, int], k: int
) -> List[float]:
    """Per-cluster total node weight under an assignment."""
    loads = [0.0] * k
    for node, cluster in assignment.items():
        loads[cluster] += graph.weights[node]
    return loads
