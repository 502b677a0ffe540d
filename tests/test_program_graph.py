"""Tests for the program-level DFG (GDP's phase-1 input)."""

from repro.analysis import ProgramGraph, annotate_memory_ops
from repro.lang import compile_source


def graph_of(src, freq=None):
    module = compile_source(src, "t")
    annotate_memory_ops(module)
    return module, ProgramGraph(module, freq)


class TestNodes:
    def test_every_op_is_a_node(self):
        module, graph = graph_of("int main() { return 1 + 2; }")
        assert graph.node_count() == module.op_count()

    def test_memory_nodes_annotated(self):
        module, graph = graph_of(
            "int t[4]; int main() { t[0] = 1; return t[0]; }"
        )
        mem = graph.memory_nodes()
        assert len(mem) == 2
        assert all("g:t" in n.op.mem_objects() for n in mem)

    def test_frequencies_recorded(self):
        module, graph = graph_of(
            "int main() { int s = 0; for (int i = 0; i < 4; i = i + 1)"
            " { s = s + i; } return s; }",
            freq=lambda f, b: 42.0 if b == "bb1" else 1.0,
        )
        freqs = {n.block: n.freq for n in graph.nodes.values()}
        assert freqs["bb1"] == 42.0

    def test_static_frequency_fallback(self):
        module, graph = graph_of(
            "int main() { int s = 0; for (int i = 0; i < 4; i = i + 1)"
            " { s = s + i; } return s; }"
        )
        loop_freqs = [n.freq for n in graph.nodes.values() if n.block != "entry"]
        assert max(loop_freqs) > 1.0


class TestEdges:
    def test_def_use_edge(self):
        module, graph = graph_of("int main() { int a = 1 + 2; return a * 3; }")
        assert len(graph.edges) >= 2

    def test_edge_weight_scales_with_frequency(self):
        src = (
            "int main() { int s = 0; for (int i = 0; i < 4; i = i + 1)"
            " { s = s + i; } return s; }"
        )
        _, cold = graph_of(src, freq=lambda f, b: 1.0)
        _, hot = graph_of(src, freq=lambda f, b: 1000.0)
        assert sum(hot.edges.values()) > sum(cold.edges.values())

    def test_interprocedural_param_edge(self):
        src = """
        int double_it(int x) { return x * 2; }
        int main() { return double_it(21); }
        """
        module, graph = graph_of(src)
        call = next(
            op for op in module.function("main").operations() if op.is_call()
        )
        callee_mul = next(
            op
            for op in module.function("double_it").operations()
            if op.opcode.mnemonic == "mul"
        )
        assert (call.uid, callee_mul.uid) in graph.edges

    def test_interprocedural_return_edge(self):
        src = """
        int get() { return 7; }
        int main() { return get() + 1; }
        """
        module, graph = graph_of(src)
        call = next(
            op for op in module.function("main").operations() if op.is_call()
        )
        ret = next(
            op
            for op in module.function("get").operations()
            if op.opcode.mnemonic == "ret"
        )
        assert (ret.uid, call.uid) in graph.edges

    def test_undirected_edges_fold_direction(self):
        module, graph = graph_of("int main() { int a = 1 + 2; return a * 3; }")
        und = graph.undirected_edges()
        for (a, b) in und:
            assert a < b
