"""Unit tests for MiniC semantic analysis."""

import pytest

from repro.ir.types import FLOAT, PointerType
from repro.lang.errors import TypeCheckError
from repro.lang.parser import parse
from repro.lang.sema import check


def check_src(src):
    return check(parse(src))


def expect_error(src, pattern):
    with pytest.raises(TypeCheckError, match=pattern):
        check_src(src)


class TestDeclarations:
    def test_duplicate_global(self):
        expect_error("int x; int x;", "duplicate global")

    def test_duplicate_function(self):
        expect_error("int f() { return 0; } int f() { return 1; }",
                     "duplicate function")

    def test_duplicate_struct(self):
        expect_error("struct P { int x; }; struct P { int y; };",
                     "duplicate struct")

    def test_unknown_struct(self):
        expect_error("struct Q g;", "unknown struct")

    def test_void_global(self):
        expect_error("void x;", "void")

    def test_local_redeclaration(self):
        expect_error("int main() { int a; int a; return 0; }", "redeclaration")

    def test_shadowing_in_nested_scope_ok(self):
        check_src("int main() { int a; { int a; } return 0; }")

    def test_local_aggregate_rejected(self):
        expect_error(
            "struct P { int x; }; int main() { struct P p; return 0; }",
            "locals must be",
        )

    def test_intrinsic_name_collision(self):
        expect_error("void print_int(int x) { }", "duplicate function")

    def test_aggregate_param_rejected(self):
        expect_error(
            "struct P { int x; }; int f(struct P p) { return 0; }",
            "scalar or pointer",
        )


class TestGlobalInitializers:
    def test_too_many_initializers(self):
        expect_error("int t[2] = {1, 2, 3};", "too many initializers")

    def test_list_on_scalar(self):
        expect_error("int x = {1};", "initializer list")

    def test_scalar_on_array(self):
        expect_error("int t[2] = 5;", "scalar initializer")

    def test_short_list_ok(self):
        check_src("int t[8] = {1, 2};")


class TestExpressionTyping:
    def test_arithmetic_promotion(self):
        chk = check_src("float g; int main() { g = 1 + 2.5; return 0; }")
        assert chk is not None

    def test_undefined_variable(self):
        expect_error("int main() { return missing; }", "undefined variable")

    def test_modulo_requires_int(self):
        expect_error("int main() { float f; return 1 % f; }", "requires int")

    def test_shift_requires_int(self):
        expect_error("int main() { return 1 << 2.0; }", "requires int")

    def test_pointer_plus_int_ok(self):
        check_src("int main() { int *p = malloc(8); p = p + 1; return 0; }")

    def test_pointer_plus_pointer_rejected(self):
        expect_error(
            "int main() { int *p = malloc(8); int *q = malloc(8); "
            "p = p + q; return 0; }",
            "pointer",
        )

    def test_pointer_times_int_rejected(self):
        expect_error(
            "int main() { int *p = malloc(8); p = p * 2; return 0; }",
            "pointer",
        )

    def test_compare_pointers_ok(self):
        check_src(
            "int main() { int *p = malloc(4); int *q = malloc(4); "
            "return p == q; }"
        )

    def test_deref_non_pointer(self):
        expect_error("int main() { int x; return *x; }", "dereference")

    def test_bitnot_requires_int(self):
        expect_error("int main() { return ~1.5; }", "int operand")


class TestLvaluesAndAddressOf(object):
    def test_assign_to_rvalue(self):
        expect_error("int main() { 1 = 2; return 0; }", "not an lvalue")

    def test_assign_to_global_array_name(self):
        expect_error("int t[4]; int main() { t = 0; return 0; }",
                     "cannot assign|not an lvalue")

    def test_addressof_local_rejected(self):
        expect_error(
            "int main() { int x; int *p = &x; return 0; }", "memory lvalue"
        )

    def test_addressof_global_ok(self):
        check_src("int g; int main() { int *p = &g; return *p; }")

    def test_addressof_element_ok(self):
        check_src("int t[4]; int main() { int *p = &t[2]; return *p; }")

    def test_addressof_field_ok(self):
        check_src(
            "struct P { int x; }; struct P g;"
            "int main() { int *p = &g.x; return *p; }"
        )


class TestIndexingAndFields:
    def test_index_requires_int(self):
        expect_error("int t[4]; int main() { return t[1.5]; }", "int")

    def test_index_non_indexable(self):
        expect_error("int main() { int x; return x[0]; }", "cannot index")

    def test_dot_on_non_struct(self):
        expect_error("int main() { int x; return x.f; }", "struct")

    def test_arrow_on_non_pointer(self):
        expect_error(
            "struct P { int x; }; struct P g; int main() { return g->x; }",
            "pointer to struct",
        )

    def test_unknown_field(self):
        expect_error(
            "struct P { int x; }; struct P g; int main() { return g.y; }",
            "no field",
        )

    def test_struct_pointer_field_chain(self):
        check_src(
            "struct P { int x; }; struct P g;"
            "int main() { struct P *p = &g; return p->x; }"
        )


class TestCalls:
    def test_undefined_function(self):
        expect_error("int main() { return nope(); }", "undefined function")

    def test_wrong_arity(self):
        expect_error(
            "int f(int a) { return a; } int main() { return f(); }",
            "expects 1 args",
        )

    def test_arg_type_mismatch(self):
        expect_error(
            "int f(int *p) { return 0; } int main() { return f(3); }",
            "cannot assign",
        )

    def test_intrinsics(self):
        check_src("int main() { print_int(1); print_float(2.5); return 0; }")

    def test_implicit_arg_conversion(self):
        check_src("int f(float x) { return 0; } int main() { return f(3); }")


class TestControlFlow:
    def test_break_outside_loop(self):
        expect_error("int main() { break; return 0; }", "outside of a loop")

    def test_continue_outside_loop(self):
        expect_error("int main() { continue; return 0; }", "outside of a loop")

    def test_return_value_from_void(self):
        expect_error("void f() { return 1; }", "void function returns")

    def test_missing_return_value(self):
        expect_error("int f() { return; }", "missing return value")

    def test_condition_must_be_scalar(self):
        expect_error(
            "struct P { int x; }; struct P g; int main() "
            "{ if (g) { } return 0; }",
            "non-scalar",
        )


class TestMallocAndSizeof:
    def test_malloc_size_must_be_int(self):
        expect_error("int main() { int *p = malloc(1.5); return 0; }",
                     "must be an int")

    def test_malloc_adopts_context_type(self):
        prog = parse("int main() { float *p = malloc(16); return 0; }")
        check(prog)
        decl = prog.functions[0].body.stmts[0]
        assert decl.init.ty == PointerType(FLOAT)

    def test_malloc_sites_unique(self):
        prog = parse(
            "int main() { int *a = malloc(4); int *b = malloc(4); return 0; }"
        )
        check(prog)
        sites = [s.init.site for s in prog.functions[0].body.stmts[:2]]
        assert len(set(sites)) == 2

    def test_sizeof_folds(self):
        prog = parse("int main() { return sizeof(float); }")
        check(prog)
        assert prog.functions[0].body.stmts[0].value.value == 8

    def test_sizeof_struct(self):
        prog = parse(
            "struct P { int x; float y; }; int main() { return sizeof(struct P); }"
        )
        check(prog)
        assert prog.functions[0].body.stmts[0].value.value == 16


class TestCasts:
    def test_int_float_casts(self):
        check_src("int main() { float f = 1.5; return (int)f + (int)2.5; }")

    def test_pointer_cast_ok(self):
        check_src(
            "int main() { int *p = malloc(8); float *q = (float*)p; return 0; }"
        )

    def test_int_to_pointer_rejected(self):
        expect_error("int main() { int *p = (int*)4; return 0; }",
                     "cannot cast")

    def test_pointer_to_int_rejected(self):
        expect_error(
            "int main() { int *p = malloc(4); return (int)p; }", "cannot cast"
        )


class TestTernary:
    def test_arm_promotion(self):
        check_src("int main() { float f = 1 ? 1 : 2.5; return 0; }")

    def test_incompatible_arms(self):
        expect_error(
            "int main() { int *p = malloc(4); return 1 ? 1 : p; }",
            "ternary arms|cannot",
        )
