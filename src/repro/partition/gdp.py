"""Global Data Partitioning — phase 1 of the paper's algorithm.

Builds the program-level DFG, applies the access-pattern merges, and runs
the multilevel graph partitioner with data-size node weights to choose a
home cluster for every data object (Section 3.3.2): "METIS tries to divide
the nodes into separate partitions by minimizing the number of edges cut
while also trying to balance the node weights. ... Node weights are added
to each operation which indicate the size of the data (if any) accessed
within that node."
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..analysis.dfg import ProgramGraph
from ..analysis.objects import ObjectTable
from ..ir import Module
from .merges import MergeResult, access_pattern_merge
from .multilevel import MultilevelPartitioner, PartitionGraph

#: Balance cap of the Profile Max baseline's greedy object homing: no
#: cluster takes more than this multiple of an even share of the data
#: bytes.  The scheme runner and the partition validity checker both
#: read it, so the cap enforced and the cap checked cannot drift apart.
PROFILE_MAX_IMBALANCE = 1.15


class GDPConfig:
    """Tunables for the data-partitioning pass.

    ``size_imbalance`` is the METIS-style balance knob on data bytes, the
    one balance constraint (Section 4.3: better-performing but less
    balanced mappings "can be achieved by allowing for more imbalance of
    the resulting partition").  ``budget`` is a cooperative
    :class:`repro.resilience.Budget` polled by the multilevel
    partitioner's restart/refinement loops; on expiry the best partition
    found so far is returned (anytime behaviour).
    """

    def __init__(
        self,
        size_imbalance: float = 1.20,
        seed: int = 12345,
        budget=None,
    ):
        self.size_imbalance = size_imbalance
        self.seed = seed
        self.budget = budget

    def reseeded(self, offset: int, budget=None) -> "GDPConfig":
        """A copy with the base seed bumped by ``offset`` — the retry
        knob the resilient pipeline drives (the multilevel partitioner
        already derives each restart's rng from ``seed + attempt``).
        ``budget``, when given, replaces the copy's budget."""
        return GDPConfig(
            size_imbalance=self.size_imbalance,
            seed=self.seed + offset,
            budget=budget if budget is not None else self.budget,
        )


class DataPartition:
    """Phase-1 result: a home cluster per data object."""

    def __init__(
        self,
        object_home: Dict[str, int],
        merge: MergeResult,
        group_cluster: Dict[int, int],
        num_clusters: int,
    ):
        self.object_home = object_home
        self.merge = merge
        self.group_cluster = group_cluster
        self.num_clusters = num_clusters

    def cluster_bytes(self, objects: ObjectTable):
        """Total data bytes homed on each cluster."""
        totals = [0] * self.num_clusters
        for obj_id, cluster in self.object_home.items():
            if obj_id in objects:
                totals[cluster] += objects[obj_id].size
        return totals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<data partition: {len(self.object_home)} objects>"


def build_group_graph(
    graph: ProgramGraph,
    objects: ObjectTable,
    merge: MergeResult,
) -> PartitionGraph:
    """The coarsened program graph handed to the graph partitioner: one
    node per merge group, weighted by the data bytes it holds."""
    pgraph = PartitionGraph()
    for gid, group in merge.groups.items():
        pgraph.add_node(gid, objects.size_of(group.object_ids))
    for (src, dst), weight in graph.undirected_edges().items():
        gs = merge.group_of_op[src]
        gd = merge.group_of_op[dst]
        if gs != gd:
            pgraph.add_edge(gs, gd, weight)
    return pgraph


def gdp_partition(
    module: Module,
    objects: ObjectTable,
    num_clusters: int,
    block_freq: Optional[Callable[[str, str], float]] = None,
    config: Optional[GDPConfig] = None,
    merge: Optional[MergeResult] = None,
    program_graph: Optional[ProgramGraph] = None,
) -> DataPartition:
    """Run phase 1: choose a home cluster for every data object.

    ``block_freq`` supplies profiled block frequencies; without it the
    static loop-nesting estimate is used.  A precomputed ``merge`` and/or
    ``program_graph`` may be passed to share work between schemes.
    """
    config = config or GDPConfig()
    graph = program_graph or ProgramGraph(module, block_freq)
    merge = merge or access_pattern_merge(graph, objects)
    partitioner = MultilevelPartitioner(
        k=num_clusters, imbalance=config.size_imbalance, seed=config.seed,
        budget=config.budget,
    )
    group_cluster = partitioner.partition(build_group_graph(graph, objects, merge))

    object_home = {
        obj_id: group_cluster[gid]
        for obj_id, gid in merge.group_of_object.items()
    }
    return DataPartition(object_home, merge, group_cluster, num_clusters)
