"""Tests for access-pattern merging and the GDP data partitioner."""

from repro.analysis import ObjectTable, ProgramGraph, annotate_memory_ops
from repro.lang import compile_source
from repro.machine import two_cluster_machine
from repro.partition import (
    GDPConfig,
    UnionFind,
    access_pattern_merge,
    build_group_graph,
    gdp_partition,
    memory_locks,
    slack_merge,
)
from repro.pipeline import PreparedProgram
from repro.schedule import DependenceGraph


def prepare(src):
    module = compile_source(src, "t")
    annotate_memory_ops(module)
    objects = ObjectTable(module)
    graph = ProgramGraph(module)
    return module, objects, graph


class TestUnionFind:
    def test_basic(self):
        uf = UnionFind()
        assert not uf.same("a", "b")
        uf.union("a", "b")
        assert uf.same("a", "b")

    def test_transitive(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        uf.union("d", "e")
        assert uf.same("a", "c")
        assert not uf.same("a", "d")

    def test_find_is_idempotent(self):
        uf = UnionFind()
        uf.union(1, 2)
        assert uf.find(1) == uf.find(uf.find(2))


class TestAccessPatternMerge:
    def test_distinct_objects_stay_apart(self):
        _, objects, graph = prepare(
            "int a[4]; int b[4]; int main() { a[0] = 1; return b[0]; }"
        )
        merge = access_pattern_merge(graph, objects)
        assert merge.group_of_object["g:a"] != merge.group_of_object["g:b"]

    def test_single_op_multiple_objects_merges_them(self):
        """Paper rule 1: one memory op reaching two objects merges them."""
        src = """
        int a = 1;
        int b = 2;
        int main() {
          int c = 1;
          int *p;
          if (c) { p = &a; } else { p = &b; }
          return *p;
        }
        """
        _, objects, graph = prepare(src)
        merge = access_pattern_merge(graph, objects)
        assert merge.group_of_object["g:a"] == merge.group_of_object["g:b"]

    def test_ops_on_same_object_merge(self):
        """Paper rule 2: multiple ops on one object merge together."""
        _, objects, graph = prepare(
            "int t[4]; int main() { t[0] = 1; t[1] = 2; return t[0]; }"
        )
        merge = access_pattern_merge(graph, objects)
        gid = merge.group_of_object["g:t"]
        assert len(merge.groups[gid].op_uids) >= 3

    def test_transitive_merging(self):
        """Heap object aliased with a global merges everything reachable."""
        src = """
        int value1;
        int main() {
          int c = 1;
          int *x = malloc(4);
          int *foo;
          if (c) { foo = x; } else { foo = &value1; }
          *x = 3;
          value1 = 4;
          return *foo;
        }
        """
        module, objects, graph = prepare(src)
        merge = access_pattern_merge(graph, objects)
        heap = next(o for o in objects.ids() if o.startswith("h:"))
        assert merge.group_of_object[heap] == merge.group_of_object["g:value1"]

    def test_object_groups_listed(self):
        _, objects, graph = prepare(
            "int a[4]; int b; int main() { a[0] = 1; return b; }"
        )
        merge = access_pattern_merge(graph, objects)
        object_gids = {g.gid for g in merge.object_groups()}
        assert len(object_gids) == 2

    def test_unaccessed_object_forms_own_group(self):
        _, objects, graph = prepare("int silent[64]; int main() { return 0; }")
        merge = access_pattern_merge(graph, objects)
        assert "g:silent" in merge.group_of_object

    def test_slack_merge_at_most_as_many_groups(self):
        src = "int t[8]; int main() { int s = 0;" \
              " for (int i = 0; i < 8; i = i + 1) { s = s + t[i]; }" \
              " return s; }"
        module, objects, graph = prepare(src)
        machine = two_cluster_machine()
        depgraphs = [
            DependenceGraph(b, machine.latency_of)
            for f in module
            for b in f
            if b.ops
        ]
        plain = access_pattern_merge(graph, objects)
        slack = slack_merge(graph, objects, depgraphs)
        assert slack.group_count() <= plain.group_count()


class TestGDP:
    SRC = """
    int a[64];
    int b[64];
    int c[64];
    int d[64];
    int main() {
      int s = 0;
      for (int i = 0; i < 64; i = i + 1) { a[i] = i; b[i] = a[i] * 2; }
      for (int i = 0; i < 64; i = i + 1) { c[i] = i; d[i] = c[i] * 3; }
      for (int i = 0; i < 64; i = i + 1) { s = s + b[i] + d[i]; }
      return s;
    }
    """

    def test_every_object_homed(self):
        module, objects, graph = prepare(self.SRC)
        dp = gdp_partition(module, objects, 2)
        assert set(dp.object_home) == set(objects.ids())
        assert set(dp.object_home.values()) <= {0, 1}

    def test_bytes_balanced(self):
        module, objects, graph = prepare(self.SRC)
        dp = gdp_partition(module, objects, 2, config=GDPConfig(size_imbalance=1.2))
        sizes = dp.cluster_bytes(objects)
        total = sum(sizes)
        assert max(sizes) <= 1.2 * total / 2 + 64  # one-object granularity slack

    def test_coupled_objects_colocated(self):
        """a-b and c-d are tightly coupled pairwise; the min-cut should
        keep each pair together."""
        module, objects, graph = prepare(self.SRC)
        dp = gdp_partition(module, objects, 2)
        assert dp.object_home["g:a"] == dp.object_home["g:b"]
        assert dp.object_home["g:c"] == dp.object_home["g:d"]
        assert dp.object_home["g:a"] != dp.object_home["g:c"]

    def test_merged_objects_share_cluster(self):
        src = """
        int a = 1;
        int b = 2;
        int main() {
          int c = 1;
          int *p;
          if (c) { p = &a; } else { p = &b; }
          return *p + a + b;
        }
        """
        module, objects, graph = prepare(src)
        dp = gdp_partition(module, objects, 2)
        assert dp.object_home["g:a"] == dp.object_home["g:b"]

    def test_group_graph_weights(self):
        module, objects, graph = prepare(self.SRC)
        merge = access_pattern_merge(graph, objects)
        pg = build_group_graph(graph, objects, merge)
        assert pg.total_weight() == objects.total_size()

    def test_four_clusters(self):
        module, objects, graph = prepare(self.SRC)
        dp = gdp_partition(module, objects, 4)
        assert set(dp.object_home.values()) <= {0, 1, 2, 3}

    def test_deterministic(self):
        m1, o1, _ = prepare(self.SRC)
        m2, o2, _ = prepare(self.SRC)
        dp1 = gdp_partition(m1, o1, 2)
        dp2 = gdp_partition(m2, o2, 2)
        assert dp1.object_home == dp2.object_home


class TestMemoryLocks:
    def test_locks_follow_homes(self):
        module, objects, graph = prepare(
            "int a[4]; int b[4]; int main() { a[0] = 1; return b[0]; }"
        )
        locks = memory_locks(module, {"g:a": 0, "g:b": 1})
        mem_ops = [
            op for op in module.function("main").operations()
            if op.is_memory_access()
        ]
        for op in mem_ops:
            (obj,) = op.mem_objects()
            assert locks[op.uid] == (0 if obj == "g:a" else 1)

    def test_ambiguous_op_uses_most_accessed(self):
        src = """
        int a = 1;
        int b = 2;
        int main() {
          int c = 1;
          int *p;
          if (c) { p = &a; } else { p = &b; }
          return *p;
        }
        """
        module, objects, graph = prepare(src)
        ambiguous = [
            op
            for op in module.function("main").operations()
            if len(op.mem_objects()) == 2
        ]
        assert ambiguous
        locks = memory_locks(
            module, {"g:a": 0, "g:b": 1}, access_counts={"g:a": 10, "g:b": 99}
        )
        assert locks[ambiguous[0].uid] == 1

    def test_malloc_locked(self):
        module, objects, graph = prepare(
            "int main() { int *p = malloc(8); return p[0]; }"
        )
        heap = next(o for o in objects.ids() if o.startswith("h:"))
        locks = memory_locks(module, {heap: 1})
        from repro.ir import Opcode

        mallocs = [
            op for op in module.function("main").operations()
            if op.opcode is Opcode.MALLOC
        ]
        assert locks[mallocs[0].uid] == 1
