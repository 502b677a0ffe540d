"""Small-surface tests: diagnostics, reprs, and misc public API corners."""


from repro.lang.errors import LexError, MiniCError, ParseError, SourceLocation
from repro.lang import compile_source, tokenize
from repro.machine import two_cluster_machine


class TestSourceLocation:
    def test_str(self):
        assert str(SourceLocation(3, 7)) == "3:7"

    def test_equality_and_hash(self):
        assert SourceLocation(1, 2) == SourceLocation(1, 2)
        assert SourceLocation(1, 2) != SourceLocation(1, 3)
        assert hash(SourceLocation(1, 2)) == hash(SourceLocation(1, 2))

    def test_error_message_includes_location(self):
        err = ParseError("oops", SourceLocation(4, 5))
        assert "4:5" in str(err)

    def test_error_without_location(self):
        assert str(MiniCError("plain")) == "plain"

    def test_hierarchy(self):
        assert issubclass(LexError, MiniCError)
        assert issubclass(ParseError, MiniCError)


class TestPublicAPI:
    def test_top_level_exports(self):
        import repro

        assert hasattr(repro, "compile_source")
        assert hasattr(repro, "Module")
        assert repro.__version__

    def test_compile_source_defaults_pure(self):
        """compile_source with defaults must not transform the program."""
        src = (
            "int main() { int s = 0;"
            " for (int i = 0; i < 4; i = i + 1) { s = s + i; } return s; }"
        )
        plain = compile_source(src, "a")
        explicit = compile_source(src, "b", unroll_factor=0, if_convert=False)
        assert plain.op_count() == explicit.op_count()

    def test_machine_repr_readable(self):
        text = repr(two_cluster_machine(move_latency=7))
        assert "2 clusters" in text and "7" in text


class TestTokenizeConvenience:
    def test_tokenize_exported(self):
        toks = tokenize("int x;")
        assert toks[0].is_kw("int")


class TestRobustness:
    def test_empty_main(self):
        module = compile_source("int main() { return 0; }", "t")
        assert module.op_count() == 1

    def test_comment_only_function_body_void(self):
        module = compile_source("void f() { /* nothing */ } "
                                "int main() { f(); return 0; }", "t")
        from repro.profiler import Interpreter

        assert Interpreter(module).run() == 0

    def test_deeply_nested_expressions(self):
        expr = "1" + " + 1" * 120
        module = compile_source(f"int main() {{ return {expr}; }}", "t")
        from repro.profiler import Interpreter

        assert Interpreter(module).run() == 121

    def test_deeply_nested_blocks(self):
        body = "{" * 30 + "s = s + 1;" + "}" * 30
        src = f"int main() {{ int s = 0; {body} return s; }}"
        from repro.profiler import Interpreter

        assert Interpreter(compile_source(src, "t")).run() == 1

    def test_many_functions(self):
        parts = [f"int f{i}(int x) {{ return x + {i}; }}" for i in range(30)]
        calls = " + ".join(f"f{i}(0)" for i in range(30))
        src = "\n".join(parts) + f"\nint main() {{ return {calls}; }}"
        from repro.profiler import Interpreter

        assert Interpreter(compile_source(src, "t")).run() == sum(range(30))

    def test_large_global_array(self):
        src = "int big[10000]; int main() { big[9999] = 7; return big[9999]; }"
        from repro.profiler import Interpreter

        assert Interpreter(compile_source(src, "t")).run() == 7
