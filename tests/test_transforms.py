"""Tests for the AST transforms: loop unrolling and if-conversion."""

import pytest

from repro.lang import compile_source
from repro.lang import ifconvert, unroll
from repro.lang.ifconvert import if_convert_program
from repro.lang.parser import parse
from repro.lang.unroll import unroll_program
from repro.profiler import Interpreter


def outputs(src, **kwargs):
    module = compile_source(src, "t", **kwargs)
    interp = Interpreter(module)
    result = interp.run()
    return result, interp.profile.output


def assert_equivalent(src):
    """The transformed program must produce identical results."""
    base = outputs(src)
    for kwargs in (
        {"unroll_factor": 2},
        {"unroll_factor": 4},
        {"if_convert": True},
        {"unroll_factor": 4, "if_convert": True},
    ):
        assert outputs(src, **kwargs) == base, kwargs


class TestUnrollCorrectness:
    def test_exact_multiple_trip_count(self):
        assert_equivalent(
            "int t[16]; int main() { int s = 0;"
            " for (int i = 0; i < 16; i = i + 1) { t[i] = i; s = s + t[i]; }"
            " return s; }"
        )

    def test_remainder_trip_count(self):
        for n in (0, 1, 2, 3, 5, 7, 9):
            assert_equivalent(
                f"int t[16]; int main() {{ int s = 0;"
                f" for (int i = 0; i < {n}; i = i + 1) {{ s = s + i * i; }}"
                f" return s; }}"
            )

    def test_non_unit_stride(self):
        assert_equivalent(
            "int main() { int s = 0;"
            " for (int i = 0; i < 37; i = i + 3) { s = s + i; } return s; }"
        )

    def test_le_condition(self):
        assert_equivalent(
            "int main() { int s = 0;"
            " for (int i = 1; i <= 10; i = i + 1) { s = s + i; } return s; }"
        )

    def test_decreasing_loop(self):
        assert_equivalent(
            "int t[8]; int main() { for (int i = 7; i > 0; i = i - 1)"
            " { t[i] = t[i - 1] + 1; } return t[7]; }"
        )

    def test_decreasing_ge(self):
        assert_equivalent(
            "int main() { int s = 0; for (int i = 10; i >= 0; i = i - 2)"
            " { s = s + i; } return s; }"
        )

    def test_dynamic_bound(self):
        assert_equivalent(
            "int n = 13; int main() { int s = 0;"
            " for (int i = 0; i < n; i = i + 1) { s = s + i; } return s; }"
        )

    def test_nested_loops_inner_unrolled(self):
        assert_equivalent(
            "int main() { int s = 0; for (int i = 0; i < 5; i = i + 1)"
            " { for (int j = 0; j < 7; j = j + 1) { s = s + i * j; } }"
            " return s; }"
        )

    def test_assign_init_form(self):
        assert_equivalent(
            "int main() { int s = 0; int i;"
            " for (i = 0; i < 9; i = i + 1) { s = s + i; } return s; }"
        )


class TestUnrollEligibility:
    def _count(self, src):
        return unroll_program(parse(src))

    def test_simple_loop_unrolls(self):
        assert self._count(
            "int main() { int s = 0;"
            " for (int i = 0; i < 8; i = i + 1) { s = s + i; } return s; }"
        ) == 1

    def test_body_with_branch_not_unrolled(self):
        assert self._count(
            "int main() { int s = 0; for (int i = 0; i < 8; i = i + 1)"
            " { if (i) { s = s + 1; } } return s; }"
        ) == 0

    def test_body_writing_induction_var_not_unrolled(self):
        assert self._count(
            "int main() { int s = 0; for (int i = 0; i < 8; i = i + 1)"
            " { i = i + 1; s = s + 1; } return s; }"
        ) == 0

    def test_impure_bound_not_unrolled(self):
        assert self._count(
            "int f() { return 4; } int main() { int s = 0;"
            " for (int i = 0; i < f(); i = i + 1) { s = s + 1; } return s; }"
        ) == 0

    def test_bound_depending_on_var_not_unrolled(self):
        assert self._count(
            "int main() { int s = 0;"
            " for (int i = 0; i < i + 1; i = i + 1) { s = s + 1;"
            " if (s > 3) { } } return s; }"
        ) == 0

    def test_while_not_unrolled(self):
        assert self._count(
            "int main() { int i = 0; while (i < 8) { i = i + 1; } return i; }"
        ) == 0

    def test_adaptive_factor_shrinks(self, monkeypatch):
        monkeypatch.setattr(unroll, "TARGET_STMTS", 16)
        assert unroll._factor_for(8, 2) == 8
        assert unroll._factor_for(8, 4) == 4
        assert unroll._factor_for(8, 8) == 2
        assert unroll._factor_for(8, 100) == 2

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            unroll_program(parse("int main() { return 0; }"), 1)


class TestIfConversion:
    def _count(self, src):
        prog = parse(src)
        return if_convert_program(prog)

    def test_simple_clamp_converts(self):
        assert self._count(
            "int main() { int x = 5; if (x > 3) { x = 3; } return x; }"
        ) >= 1

    def test_if_else_converts(self):
        assert self._count(
            "int main() { int x = 5; int y;"
            " if (x > 3) { y = 1; } else { y = 2; } return y; }"
        ) >= 1

    def test_semantics_preserved(self):
        assert_equivalent(
            """
            int main() {
              int s = 0;
              for (int i = -10; i < 10; i = i + 1) {
                int v = i * 3;
                if (v < 0) { v = -v; }
                if (v > 12) { v = 12; } else { v = v + 1; }
                s = s + v;
              }
              return s;
            }
            """
        )

    def test_branch_with_store_not_converted(self):
        assert self._count(
            "int t[4]; int main() { int x = 1;"
            " if (x) { t[0] = 5; } return t[0]; }"
        ) == 0

    def test_branch_with_load_not_converted(self):
        assert self._count(
            "int t[4]; int main() { int x = 1; int y = 0;"
            " if (x) { y = t[2]; } return y; }"
        ) == 0

    def test_branch_with_division_not_converted(self):
        assert self._count(
            "int main() { int x = 1; int y = 0;"
            " if (x) { y = 10 / x; } return y; }"
        ) == 0

    def test_branch_with_call_not_converted(self):
        assert self._count(
            "int f() { return 1; } int main() { int x = 1; int y = 0;"
            " if (x) { y = f(); } return y; }"
        ) == 0

    def test_double_assignment_not_converted(self):
        assert self._count(
            "int main() { int x = 1; int y = 0;"
            " if (x) { y = 1; y = 2; } return y; }"
        ) == 0

    def test_read_after_branch_assign_not_converted(self):
        assert self._count(
            "int main() { int x = 1; int a = 0; int b = 0;"
            " if (x) { a = 5; b = a; } return b; }"
        ) == 0

    def test_branch_local_declaration_hoisted(self):
        src = """
        int main() {
          int x = 7;
          int y = 0;
          if (x > 3) { int t = x * 2; y = t + 1; }
          return y;
        }
        """
        assert self._count(src) == 1
        assert_equivalent(src)

    def test_nested_diamonds_converge(self):
        src = """
        int main() {
          int v = 40000;
          if (v > 32767) { v = 32767; }
          else { if (v < -32768) { v = -32768; } }
          return v;
        }
        """
        prog = parse(src)
        assert if_convert_program(prog) == 2
        assert_equivalent(src)

    def test_max_statements_limit(self, monkeypatch):
        monkeypatch.setattr(ifconvert, "MAX_STATEMENTS", 2)
        src = (
            "int main() { int x = 1; int a; int b; int c;"
            " if (x) { a = 1; b = 2; c = 3; } return a + b + c; }"
        )
        prog = parse(src)
        assert if_convert_program(prog) == 0

    def test_unconverted_code_unchanged_semantics(self):
        # A mix of convertible and non-convertible diamonds.
        assert_equivalent(
            """
            int t[8];
            int main() {
              int s = 0;
              for (int i = 0; i < 8; i = i + 1) {
                int v = i - 4;
                if (v < 0) { v = -v; }
                if (i % 2) { t[i] = v; }   /* store: not converted */
                s = s + v;
              }
              return s + t[3] + t[5];
            }
            """
        )
