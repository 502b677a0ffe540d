"""Tests for the tiered points-to analyses and memory-op annotation."""

import pytest

from repro.analysis import (
    TIERS,
    ObjectTable,
    annotate_memory_ops,
    global_object_id,
    heap_object_id,
    solve_pointsto,
)
from repro.ir import Opcode
from repro.lang import compile_source


def annotated(src):
    module = compile_source(src, "t")
    annotate_memory_ops(module)
    return module


def mem_ops(module, func="main"):
    return [
        op for op in module.function(func).operations() if op.is_memory_access()
    ]


class TestDirectAccess:
    def test_global_scalar(self):
        module = annotated("int g = 1; int main() { return g; }")
        (load,) = mem_ops(module)
        assert load.mem_objects() == {global_object_id("g")}

    def test_global_array(self):
        module = annotated("int t[4]; int main() { t[0] = 1; return t[1]; }")
        for op in mem_ops(module):
            assert op.mem_objects() == {"g:t"}

    def test_two_distinct_arrays(self):
        module = annotated(
            "int a[4]; int b[4]; int main() { a[0] = 1; return b[0]; }"
        )
        store, load = mem_ops(module)
        assert store.mem_objects() == {"g:a"}
        assert load.mem_objects() == {"g:b"}

    def test_malloc_annotated(self):
        module = annotated("int main() { int *p = malloc(8); return p[0]; }")
        mallocs = [
            op
            for op in module.function("main").operations()
            if op.opcode is Opcode.MALLOC
        ]
        assert len(mallocs) == 1
        (site,) = mallocs[0].mem_objects()
        assert site.startswith("h:")
        (load,) = mem_ops(module)
        assert load.mem_objects() == {site}


class TestFlowThroughCopiesAndPhis:
    def test_pointer_select_merges(self):
        src = """
        int a[4];
        int b[4];
        int main(){
          int c = 1;
          int *p;
          if (c) { p = a; } else { p = b; }
          return p[0];
        }
        """
        module = annotated(src)
        loads = [op for op in mem_ops(module) if op.opcode is Opcode.LOAD]
        assert loads[-1].mem_objects() == {"g:a", "g:b"}

    def test_pointer_arith_preserves_target(self):
        module = annotated(
            "int t[8]; int main() { int *p = t; p = p + 3; return *p; }"
        )
        (load,) = mem_ops(module)
        assert load.mem_objects() == {"g:t"}


class TestFlowThroughMemory:
    def test_pointer_stored_in_global(self):
        src = """
        int a[4];
        int *gp;
        int main() {
          gp = a;
          return gp[0];
        }
        """
        module = annotated(src)
        ops = mem_ops(module)
        # the load through gp reads both gp itself and then object a
        final = ops[-1]
        assert "g:a" in final.mem_objects()

    def test_heap_pointer_through_global(self):
        src = """
        int *gp;
        int main() {
          gp = malloc(16);
          gp[1] = 5;
          return gp[1];
        }
        """
        module = annotated(src)
        accesses = [op for op in mem_ops(module) if op.mem_objects()]
        heap_objs = {
            o for op in accesses for o in op.mem_objects() if o.startswith("h:")
        }
        assert len(heap_objs) == 1

    def test_paper_figure4_pattern(self):
        """The paper's Figure 4: a pointer that may be heap or global."""
        src = """
        int value1;
        int value2;
        int main() {
          int cond = 1;
          int *x = malloc(4);
          int *foo;
          *x = 1;
          value1 = 2;
          if (cond) { foo = x; } else { foo = &value1; }
          int r = *foo;         /* may access value1 or the heap object */
          value2 = r;
          return value2;
        }
        """
        module = annotated(src)
        loads = [op for op in mem_ops(module) if op.opcode is Opcode.LOAD]
        foo_load = [op for op in loads if len(op.mem_objects()) > 1]
        assert foo_load, "ambiguous load should see both objects"
        objs = foo_load[0].mem_objects()
        assert "g:value1" in objs
        assert any(o.startswith("h:") for o in objs)


class TestInterprocedural:
    def test_pointer_through_call(self):
        src = """
        int a[4];
        int get(int *p) { return p[1]; }
        int main() { return get(a); }
        """
        module = compile_source(src, "t")
        annotate_memory_ops(module)
        (load,) = mem_ops(module, "get")
        assert load.mem_objects() == {"g:a"}

    def test_two_callers_merge(self):
        src = """
        int a[4];
        int b[4];
        int get(int *p) { return p[0]; }
        int main() { return get(a) + get(b); }
        """
        module = compile_source(src, "t")
        annotate_memory_ops(module)
        (load,) = mem_ops(module, "get")
        assert load.mem_objects() == {"g:a", "g:b"}

    def test_returned_pointer(self):
        src = """
        int *make() { return malloc(8); }
        int main() { int *p = make(); return p[0]; }
        """
        module = compile_source(src, "t")
        annotate_memory_ops(module)
        (load,) = mem_ops(module)
        (obj,) = load.mem_objects()
        assert obj.startswith("h:make")


class TestObjectTable:
    def test_sizes_from_types(self):
        module = annotated("int t[10]; float f; int main() { return t[0]; }")
        table = ObjectTable(module)
        assert table["g:t"].size == 40
        assert table["g:f"].size == 8

    def test_heap_sizes_from_profile(self):
        module = annotated("int main() { int *p = malloc(64); return p[0]; }")
        site = next(o for o in ObjectTable(module).ids() if o.startswith("h:"))
        table = ObjectTable(module, heap_sizes={site: 640})
        assert table[site].size == 640

    def test_heap_default_size(self):
        module = annotated("int main() { int *p = malloc(64); return p[0]; }")
        table = ObjectTable(module, default_heap_size=128)
        site = next(o for o in table.ids() if o.startswith("h:"))
        assert table[site].size == 128

    def test_accessors(self):
        module = annotated(
            "int t[4]; int main() { t[0] = 1; t[1] = 2; return t[0]; }"
        )
        table = ObjectTable(module)
        assert "g:t" in table.accessed_ids()

    def test_total_size(self):
        module = annotated("int a[4]; int b; int main() { return a[0] + b; }")
        table = ObjectTable(module)
        assert table.total_size() == 20

    def test_contains_and_len(self):
        module = annotated("int a; int main() { return a; }")
        table = ObjectTable(module)
        assert "g:a" in table
        assert len(table) == 1


# -- Precision tiers ---------------------------------------------------------

POINTER_TABLE = """
int a[4];
int b[4];
int *tab[2];
int main() {
  tab[0] = a;
  tab[1] = b;
  int *p = tab[0];
  int *q = tab[1];
  return p[0] + q[0];
}
"""

STRUCT_OF_POINTERS = """
struct pair { int *lo; int *hi; };
struct pair pr;
int a[4];
int b[4];
int main() {
  pr.lo = a;
  pr.hi = b;
  int *p = pr.lo;
  return p[0];
}
"""

RETURNED_POINTER = """
int a[4];
int b[4];
int *pick(int *p) { return p; }
int main() {
  int *x = pick(a);
  int *y = pick(b);
  return x[0] + y[0];
}
"""


def deref_loads(module, tier, func="main"):
    """The LOAD ops of ``func`` that read array element data (not the
    pointer table itself), paired with their annotated target sets."""
    annotate_memory_ops(module, tier=tier)
    out = []
    for op in module.function(func).operations():
        if op.opcode is Opcode.LOAD and op.dest is not None and not (
            op.dest.ty.is_pointer()
        ):
            out.append(op.mem_objects())
    return out


class TestFieldTier:
    def test_pointer_table_slots_stay_distinct(self):
        module = compile_source(POINTER_TABLE, "t")
        sets = deref_loads(module, "field")
        assert {"g:a"} in sets and {"g:b"} in sets
        assert {"g:a", "g:b"} not in sets

    def test_andersen_merges_the_same_slots(self):
        module = compile_source(POINTER_TABLE, "t")
        sets = deref_loads(module, "andersen")
        assert all(s == {"g:a", "g:b"} for s in sets)

    def test_struct_pointer_fields_stay_distinct(self):
        module = compile_source(STRUCT_OF_POINTERS, "t")
        (value_load,) = deref_loads(module, "field")
        assert value_load == {"g:a"}
        module2 = compile_source(STRUCT_OF_POINTERS, "t")
        (merged,) = deref_loads(module2, "andersen")
        assert merged == {"g:a", "g:b"}

    def test_unknown_offset_store_reaches_all_slots(self):
        """A store through an unknown index must be seen by every slot's
        readers — field sensitivity cannot pretend it missed."""
        src = """
        int a[4];
        int b[4];
        int c[4];
        int *tab[2];
        int u[1];
        int main() {
          tab[0] = a;
          tab[1] = b;
          tab[u[0]] = c;
          int *p = tab[0];
          return p[0];
        }
        """
        module = compile_source(src, "t")
        sets = deref_loads(module, "field")
        assert any("g:c" in s and "g:a" in s for s in sets)


class TestContextTier:
    def test_returned_pointer_split_by_call_site(self):
        module = compile_source(RETURNED_POINTER, "t")
        sets = deref_loads(module, "cs")
        assert {"g:a"} in sets and {"g:b"} in sets

    def test_andersen_merges_returned_pointers(self):
        module = compile_source(RETURNED_POINTER, "t")
        sets = deref_loads(module, "andersen")
        assert all(s == {"g:a", "g:b"} for s in sets)

    def test_callee_ops_union_over_contexts(self):
        """A deref inside the shared callee genuinely touches both objects
        across the program run, so its annotation must keep both."""
        src = """
        int a[4];
        int b[4];
        int get(int *p) { return p[0]; }
        int main() { return get(a) + get(b); }
        """
        module = compile_source(src, "t")
        annotate_memory_ops(module, tier="cs")
        (load,) = [
            op for op in module.function("get").operations()
            if op.opcode is Opcode.LOAD
        ]
        assert load.mem_objects() == {"g:a", "g:b"}

    def test_cs_includes_field_sensitivity(self):
        module = compile_source(POINTER_TABLE, "t")
        sets = deref_loads(module, "cs")
        assert {"g:a"} in sets and {"g:b"} in sets


class TestRefinementChain:
    @pytest.mark.parametrize(
        "src", [POINTER_TABLE, STRUCT_OF_POINTERS, RETURNED_POINTER]
    )
    def test_every_op_set_shrinks_monotonically(self, src):
        module = compile_source(src, "t")
        sols = {tier: solve_pointsto(module, tier) for tier in TIERS}
        for func in module:
            for op in func.operations():
                if not op.is_memory_access():
                    continue
                sets = [sols[t].objects_for_op(func.name, op) for t in TIERS]
                for coarse, fine in zip(sets, sets[1:]):
                    assert fine <= coarse, (func.name, op.uid, coarse, fine)

    def test_avg_set_size_never_grows(self):
        module = compile_source(RETURNED_POINTER, "t")
        avgs = [solve_pointsto(module, t).stats().avg_set_size for t in TIERS]
        assert avgs == sorted(avgs, reverse=True)
        assert avgs[-1] < avgs[0]


class TestStatsAndInterface:
    def test_stats_fields(self):
        module = compile_source(POINTER_TABLE, "t")
        stats = solve_pointsto(module, "field").stats()
        assert stats.tier == "field"
        assert stats.memory_ops >= stats.annotated_ops > 0
        assert 0.0 <= stats.singleton_ratio <= 1.0
        assert stats.max_set_size >= 1
        assert stats.solver_iterations > 0
        d = stats.to_dict()
        assert d["tier"] == "field"
        assert "avg_set_size" in d and "mayalias_pairs" in d
        assert "field" in stats.describe()

    def test_unknown_tier_rejected(self):
        module = compile_source(POINTER_TABLE, "t")
        with pytest.raises(ValueError):
            solve_pointsto(module, "flow-sensitive")

    def test_annotate_accepts_precomputed_solution(self):
        module = compile_source(POINTER_TABLE, "t")
        sol = solve_pointsto(module, "cs")
        returned = annotate_memory_ops(module, pointsto=sol)
        assert returned is sol
