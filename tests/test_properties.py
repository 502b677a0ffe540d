"""Property-based tests (hypothesis) on core invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.analysis.affine import Affine
from repro.ir import Constant, Function, IRBuilder
from repro.ir.types import INT
from repro.lang import compile_source
from repro.machine import two_cluster_machine
from repro.partition import (
    MultilevelPartitioner,
    PartitionGraph,
    UnionFind,
    partition_balance,
)
from repro.profiler import Interpreter
from repro.profiler.memory import _wrap32
from repro.schedule import DependenceGraph, ListScheduler

ints32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
small_ints = st.integers(min_value=-1000, max_value=1000)


def run_expr(expr_src: str):
    module = compile_source(f"int main() {{ return {expr_src}; }}", "p")
    return Interpreter(module).run()


class TestInterpreterArithmeticProperties:
    @given(a=ints32, b=ints32)
    @settings(max_examples=60, deadline=None)
    def test_add_matches_c_semantics(self, a, b):
        assert run_expr(f"({a}) + ({b})") == _wrap32(a + b)

    @given(a=ints32, b=ints32)
    @settings(max_examples=60, deadline=None)
    def test_sub_and_mul(self, a, b):
        assert run_expr(f"({a}) - ({b})") == _wrap32(a - b)
        assert run_expr(f"({a}) * ({b})") == _wrap32(a * b)

    @given(a=ints32, b=ints32.filter(lambda x: x != 0))
    @settings(max_examples=60, deadline=None)
    def test_division_identity(self, a, b):
        q = run_expr(f"({a}) / ({b})")
        r = run_expr(f"({a}) % ({b})")
        assert _wrap32(q * b + r) == _wrap32(a)
        if a != -(2**31) or b != -1:  # the one overflow case
            assert abs(r) < abs(b)

    @given(a=ints32, s=st.integers(min_value=0, max_value=31))
    @settings(max_examples=60, deadline=None)
    def test_shift_right_arithmetic(self, a, s):
        assert run_expr(f"({a}) >> {s}") == (a >> s)

    @given(a=ints32, b=ints32)
    @settings(max_examples=40, deadline=None)
    def test_bitwise_involution(self, a, b):
        assert run_expr(f"(({a}) ^ ({b})) ^ ({b})") == a

    @given(a=ints32)
    @settings(max_examples=40, deadline=None)
    def test_double_negation(self, a):
        if a != -(2**31):
            assert run_expr(f"-(-({a}))") == a


class TestWrap32Properties:
    @given(v=st.integers(min_value=-(2**40), max_value=2**40))
    @settings(max_examples=100, deadline=None)
    def test_range(self, v):
        w = _wrap32(v)
        assert -(2**31) <= w < 2**31

    @given(v=st.integers(min_value=-(2**31), max_value=2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_identity_in_range(self, v):
        assert _wrap32(v) == v

    @given(v=st.integers(min_value=-(2**40), max_value=2**40))
    @settings(max_examples=100, deadline=None)
    def test_congruent_mod_2_32(self, v):
        assert (_wrap32(v) - v) % (2**32) == 0


class TestUnionFindProperties:
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=60
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_union_find_equivalence(self, pairs):
        uf = UnionFind()
        # Reference: naive equivalence classes.
        parent = {i: i for i in range(31)}

        def find_ref(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b in pairs:
            uf.union(a, b)
            parent[find_ref(a)] = find_ref(b)
        for a in range(31):
            for b in range(0, 31, 7):
                assert uf.same(a, b) == (find_ref(a) == find_ref(b))


class TestAffineProperties:
    atoms = st.sampled_from(["x", "y", "z"])

    @st.composite
    def affine_expr(draw):
        """A random affine form plus its evaluator."""
        n_terms = draw(st.integers(0, 3))
        terms = {}
        for _ in range(n_terms):
            a = draw(TestAffineProperties.atoms)
            c = draw(st.integers(-5, 5))
            terms[a] = terms.get(a, 0) + c
        const = draw(st.integers(-100, 100))
        return Affine(terms, const)

    @given(a=affine_expr(), b=affine_expr(), env_seed=st.integers(0, 1000))
    @settings(max_examples=80, deadline=None)
    def test_add_evaluates_correctly(self, a, b, env_seed):
        rng = random.Random(env_seed)
        env = {k: rng.randint(-50, 50) for k in ("x", "y", "z")}

        def evaluate(f):
            return sum(c * env[t] for t, c in f.terms.items()) + f.const

        assert evaluate(a.add(b)) == evaluate(a) + evaluate(b)
        assert evaluate(a.negate()) == -evaluate(a)
        assert evaluate(a.scale(3)) == 3 * evaluate(a)

    @given(a=affine_expr(), b=affine_expr(), env_seed=st.integers(0, 1000))
    @settings(max_examples=80, deadline=None)
    def test_same_symbolic_implies_constant_distance(self, a, b, env_seed):
        if a.same_symbolic(b):
            rng = random.Random(env_seed)
            env = {k: rng.randint(-50, 50) for k in ("x", "y", "z")}

            def evaluate(f):
                return sum(c * env[t] for t, c in f.terms.items()) + f.const

            assert evaluate(a) - evaluate(b) == a.const - b.const


class TestSchedulerProperties:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_dag_schedule_valid(self, seed):
        """Random straight-line code: the schedule must respect both
        dependences and per-cluster resource limits."""
        rng = random.Random(seed)
        func = Function("f", [], INT)
        b = IRBuilder(func)
        entry = b.new_block("entry")
        b.set_block(entry)
        values = [b.mov(Constant(1, INT))]
        for _ in range(rng.randint(3, 25)):
            lhs = rng.choice(values)
            rhs = rng.choice(values + [Constant(rng.randint(0, 9), INT)])
            op = rng.choice(["add", "mul", "sub"])
            values.append(getattr(b, op)(lhs, rhs))
        b.ret(values[-1])

        machine = two_cluster_machine(move_latency=1)
        cluster_of = {
            op.uid: rng.randint(0, 1) for op in entry.ops
        }
        graph = DependenceGraph(entry, machine.latency_of)
        sched = ListScheduler(machine).schedule_block(entry, cluster_of, graph)

        # Dependences respected.
        for edge in graph.edges:
            assert (
                sched.issue_cycle[edge.dst]
                >= sched.issue_cycle[edge.src] + edge.delay
            )
        # Resource limits respected (2 INT units per cluster).
        per_slot = {}
        for op in entry.ops:
            cls = machine.fu_class_of(op)
            if cls is None:
                continue
            key = (sched.issue_cycle[op.uid], cluster_of[op.uid], cls)
            per_slot[key] = per_slot.get(key, 0) + 1
            assert per_slot[key] <= machine.units(cluster_of[op.uid], cls)


class TestPartitionerProperties:
    @given(seed=st.integers(0, 10_000), n=st.integers(4, 40))
    @settings(max_examples=30, deadline=None)
    def test_random_graph_partition_valid(self, seed, n):
        rng = random.Random(seed)
        g = PartitionGraph()
        for i in range(n):
            g.add_node(i, rng.randint(1, 20))
        for _ in range(n * 2):
            a, b2 = rng.randint(0, n - 1), rng.randint(0, n - 1)
            if a != b2:
                g.add_edge(a, b2, rng.randint(1, 10))
        assignment = MultilevelPartitioner(k=2, imbalance=1.3).partition(g)
        assert set(assignment) == set(range(n))
        assert set(assignment.values()) <= {0, 1}
        # Balance: within tolerance OR limited by single-node granularity.
        loads = partition_balance(g, assignment, 2)
        total = g.total_weight()
        heaviest = max(g.weights.values())
        assert max(loads) <= max(1.3 * total / 2, heaviest)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_fixed_nodes_always_respected(self, seed):
        rng = random.Random(seed)
        g = PartitionGraph()
        n = 20
        for i in range(n):
            g.add_node(i, 1.0)
        for _ in range(30):
            a, b2 = rng.randint(0, n - 1), rng.randint(0, n - 1)
            if a != b2:
                g.add_edge(a, b2)
        fixed = {i: rng.randint(0, 1) for i in rng.sample(range(n), 5)}
        for node, cluster in fixed.items():
            g.fix(node, cluster)
        assignment = MultilevelPartitioner(k=2).partition(g)
        for node, cluster in fixed.items():
            assert assignment[node] == cluster


class TestUnrollProperty:
    @given(
        bound=st.integers(0, 30),
        stride=st.integers(1, 4),
        factor=st.sampled_from([2, 4]),
        start=st.integers(-3, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_unrolled_loop_sums_match(self, bound, stride, factor, start):
        src = (
            f"int main() {{ int s = 0;"
            f" for (int i = {start}; i < {bound}; i = i + {stride})"
            f" {{ s = s + i * 2 + 1; }} return s; }}"
        )
        plain = Interpreter(compile_source(src, "a")).run()
        unrolled = Interpreter(
            compile_source(src, "b", unroll_factor=factor)
        ).run()
        assert plain == unrolled
