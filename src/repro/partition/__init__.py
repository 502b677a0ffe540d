"""Partitioning algorithms: the multilevel graph partitioner, the paper's
Global Data Partitioning (phase 1), the RHOP computation partitioner
(phase 2), memory locks, and intercluster move insertion."""

from .bugalgo import BUG
from .globalvals import (
    affinity_homes,
    round_robin_homes,
    single_cluster_homes,
    size_balanced_homes,
)
from .assign import InsertionStats, insert_intercluster_moves
from .estimator import Anchor, INFEASIBLE, ScheduleEstimator
from .gdp import DataPartition, GDPConfig, build_group_graph, gdp_partition
from .locks import memory_locks
from .merges import (
    MergedGroup,
    MergeResult,
    UnionFind,
    access_pattern_merge,
    slack_merge,
)
from .multilevel import MultilevelPartitioner, PartitionGraph, partition_balance
from .rhop import RHOP, RHOPConfig, RHOPResult

__all__ = [
    "BUG",
    "affinity_homes",
    "round_robin_homes",
    "single_cluster_homes",
    "size_balanced_homes",
    "InsertionStats",
    "insert_intercluster_moves",
    "Anchor",
    "INFEASIBLE",
    "ScheduleEstimator",
    "DataPartition",
    "GDPConfig",
    "build_group_graph",
    "gdp_partition",
    "memory_locks",
    "MergedGroup",
    "MergeResult",
    "UnionFind",
    "access_pattern_merge",
    "slack_merge",
    "MultilevelPartitioner",
    "PartitionGraph",
    "partition_balance",
    "RHOP",
    "RHOPConfig",
    "RHOPResult",
]
