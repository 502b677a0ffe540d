"""Tests for the multilevel graph partitioner (METIS substitute)."""

import random

import pytest

from repro.partition import MultilevelPartitioner, PartitionGraph, partition_balance


def two_cliques(n=8, bridge_weight=0.5):
    """Two n-cliques joined by one light edge: the canonical min-cut case."""
    g = PartitionGraph()
    for i in range(2 * n):
        g.add_node(i, 1.0)
    for base in (0, n):
        for i in range(base, base + n):
            for j in range(i + 1, base + n):
                g.add_edge(i, j, 10.0)
    g.add_edge(0, n, bridge_weight)
    return g


class TestBasics:
    def test_empty_graph(self):
        assert MultilevelPartitioner(k=2).partition(PartitionGraph()) == {}

    def test_k1_all_zero(self):
        g = two_cliques(4)
        assignment = MultilevelPartitioner(k=1).partition(g)
        assert set(assignment.values()) == {0}

    def test_assignment_covers_all_nodes(self):
        g = two_cliques(6)
        assignment = MultilevelPartitioner(k=2).partition(g)
        assert set(assignment) == set(g.weights)
        assert set(assignment.values()) <= {0, 1}

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            MultilevelPartitioner(k=0)

    def test_edge_to_unknown_node(self):
        g = PartitionGraph()
        g.add_node(0, 1.0)
        with pytest.raises(KeyError):
            g.add_edge(0, 99)

    def test_self_edges_ignored(self):
        g = PartitionGraph()
        g.add_node(0, 1.0)
        g.add_edge(0, 0)
        assert g.adj[0] == {}


class TestQuality:
    def test_finds_natural_min_cut(self):
        g = two_cliques(8)
        assignment = MultilevelPartitioner(k=2, seed=3).partition(g)
        # Each clique should land wholly on one side.
        left = {assignment[i] for i in range(8)}
        right = {assignment[i] for i in range(8, 16)}
        assert len(left) == 1 and len(right) == 1
        assert left != right
        assert g.cut_weight(assignment) == 0.5

    def test_balance_respected(self):
        g = two_cliques(8)
        assignment = MultilevelPartitioner(k=2, imbalance=1.1).partition(g)
        loads = partition_balance(g, assignment, 2)
        assert abs(loads[0] - loads[1]) <= 2

    def test_star_graph_keeps_center_with_leaves(self):
        g = PartitionGraph()
        g.add_node("hub", 1.0)
        for i in range(10):
            g.add_node(i, 1.0)
            g.add_edge("hub", i, 5.0)
        assignment = MultilevelPartitioner(k=2).partition(g)
        hub_side = assignment["hub"]
        with_hub = sum(1 for i in range(10) if assignment[i] == hub_side)
        assert with_hub >= 4  # as many leaves as balance allows

    def test_weighted_balance(self):
        g = PartitionGraph()
        g.add_node("big", 100.0)
        for i in range(10):
            g.add_node(i, 10.0)
        assignment = MultilevelPartitioner(k=2, imbalance=1.2).partition(g)
        loads = partition_balance(g, assignment, 2)
        total = 200.0
        assert max(loads) <= 1.2 * total / 2 + 1e-9

    def test_four_way(self):
        g = PartitionGraph()
        for i in range(32):
            g.add_node(i, 1.0)
        for i in range(0, 32, 8):
            for a in range(i, i + 8):
                for b in range(a + 1, i + 8):
                    g.add_edge(a, b, 3.0)
        assignment = MultilevelPartitioner(k=4, imbalance=1.25).partition(g)
        assert set(assignment.values()) == {0, 1, 2, 3}
        loads = partition_balance(g, assignment, 4)
        assert max(loads) <= 10


class TestFixedNodes:
    def test_fixed_nodes_stay(self):
        g = two_cliques(6)
        g.fix(0, 1)
        g.fix(6, 0)
        assignment = MultilevelPartitioner(k=2).partition(g)
        assert assignment[0] == 1
        assert assignment[6] == 0

    def test_fixed_pull_neighbors(self):
        g = PartitionGraph()
        for i in range(6):
            g.add_node(i, 1.0)
        for i in range(5):
            g.add_edge(i, i + 1, 10.0)
        g.fix(0, 1)
        assignment = MultilevelPartitioner(k=2).partition(g)
        assert assignment[0] == 1
        # chain neighbors mostly follow
        assert assignment[1] == 1


class TestDeterminism:
    def test_same_seed_same_result(self):
        g1, g2 = two_cliques(8), two_cliques(8)
        p = MultilevelPartitioner(k=2, seed=42)
        assert p.partition(g1) == p.partition(g2)

    def test_more_restarts_never_worse_cut(self):
        """The kept partition cuts no more than the first V-cycle alone."""
        g = two_cliques(10, bridge_weight=2.0)
        p = MultilevelPartitioner(k=2, seed=5)
        first = p._one_cycle(g, random.Random(5 + 0))
        assert g.cut_weight(p.partition(g)) <= g.cut_weight(first)
