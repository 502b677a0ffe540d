"""Machine presets, including the paper's evaluation configuration."""

from __future__ import annotations

from .machine import Machine
from .resources import ClusterConfig, FUClass, InterclusterNetwork


def paper_cluster(name: str = "") -> ClusterConfig:
    """One cluster of the paper's machine: 2 integer, 1 float, 1 memory,
    1 branch unit."""
    return ClusterConfig(
        {
            FUClass.INT: 2,
            FUClass.FLOAT: 1,
            FUClass.MEM: 1,
            FUClass.BRANCH: 1,
        },
        name=name,
    )


def two_cluster_machine(move_latency: int = 5) -> Machine:
    """The paper's evaluation machine: a 2-cluster VLIW with 2I/1F/1M/1B
    per cluster, partitioned memory and a 1-move-per-cycle intercluster
    bus (default latency 5 cycles)."""
    return Machine(
        [paper_cluster("c0"), paper_cluster("c1")],
        InterclusterNetwork(move_latency),
    )


def four_cluster_machine(move_latency: int = 5) -> Machine:
    """A 4-cluster scaling of the paper's machine (used by the scaling
    ablation)."""
    return Machine(
        [paper_cluster(f"c{i}") for i in range(4)],
        InterclusterNetwork(move_latency),
    )


def single_cluster_machine() -> Machine:
    """A 1-cluster machine (degenerate case useful in tests)."""
    return Machine(
        [paper_cluster("c0")], InterclusterNetwork(1, 1), unified_memory=True
    )


def heterogeneous_machine() -> Machine:
    """A 2-cluster machine where cluster 0 has twice the integer units —
    exercises the balance model from Section 2 of the paper (latency-5
    bus)."""
    big = ClusterConfig(
        {FUClass.INT: 4, FUClass.FLOAT: 1, FUClass.MEM: 1, FUClass.BRANCH: 1},
        name="c0",
    )
    small = ClusterConfig(
        {FUClass.INT: 2, FUClass.FLOAT: 1, FUClass.MEM: 1, FUClass.BRANCH: 1},
        name="c1",
    )
    return Machine([big, small], InterclusterNetwork())
