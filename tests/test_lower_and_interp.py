"""Execution-semantics tests: MiniC -> IR -> interpreter.

Each snippet is compiled and run; results and printed output are compared
against the C semantics computed by hand (or by Python reference code).
"""

import gc
import weakref

import pytest

from repro.ir import (
    INT,
    Constant,
    Function,
    FunctionRef,
    IRBuilder,
    Module,
    Opcode,
    Operation,
    verify_module,
)
from repro.lang import compile_source
from repro.profiler import Interpreter, InterpreterError, StepLimitExceeded


def run(src, max_steps=5_000_000):
    module = compile_source(src, "t")
    interp = Interpreter(module, max_steps=max_steps)
    result = interp.run()
    return result, interp


def result_of(src):
    return run(src)[0]


class TestArithmetic:
    def test_basic_ops(self):
        assert result_of("int main() { return 7 + 3 * 4 - 6 / 2; }") == 16

    def test_division_truncates_toward_zero(self):
        assert result_of("int main() { return -7 / 2; }") == -3
        assert result_of("int main() { return 7 / -2; }") == -3

    def test_remainder_sign(self):
        assert result_of("int main() { return -7 % 2; }") == -1
        assert result_of("int main() { return 7 % -2; }") == 1

    def test_wraparound_32bit(self):
        assert (
            result_of("int main() { return 2147483647 + 1; }") == -2147483648
        )

    def test_mul_wraps(self):
        assert result_of(
            "int main() { return 1103515245 * 1103515245; }"
        ) == (1103515245 * 1103515245 & 0xFFFFFFFF) - 2**32 * (
            ((1103515245 * 1103515245) & 0xFFFFFFFF) >= 2**31
        )

    def test_bitwise(self):
        assert result_of("int main() { return (12 & 10) | (1 ^ 3); }") == 10
        assert result_of("int main() { return ~0; }") == -1

    def test_shifts(self):
        assert result_of("int main() { return 1 << 10; }") == 1024
        assert result_of("int main() { return -16 >> 2; }") == -4  # arithmetic

    def test_unary_minus_and_not(self):
        assert result_of("int main() { return -(3) + !0 + !7; }") == -2

    def test_comparisons(self):
        assert result_of(
            "int main() { return (1 < 2) + (2 <= 2) + (3 > 2) + (2 >= 3)"
            " + (1 == 1) + (1 != 1); }"
        ) == 4

    def test_division_by_zero(self):
        with pytest.raises(InterpreterError, match="division by zero"):
            run("int main() { int z = 0; return 1 / z; }")

    def test_remainder_by_zero(self):
        with pytest.raises(InterpreterError, match="remainder by zero"):
            run("int main() { int z = 0; return 1 % z; }")


class TestFloats:
    def test_float_arithmetic(self):
        r, interp = run(
            "int main() { float f = 1.5 * 4.0 - 1.0; print_float(f); return 0; }"
        )
        assert interp.profile.output == [5.0]

    def test_int_float_conversion(self):
        assert result_of("int main() { float f = 7; return (int)(f / 2.0); }") == 3

    def test_ftoi_truncates(self):
        assert result_of("int main() { float f = 2.9; return (int)f; }") == 2
        assert result_of("int main() { float f = -2.9; return (int)f; }") == -2

    def test_float_compare(self):
        assert result_of(
            "int main() { float a = 1.5; float b = 2.5; return a < b; }"
        ) == 1

    def test_mixed_arith_promotes(self):
        r, interp = run(
            "int main() { print_float(1 + 0.5); return 0; }"
        )
        assert interp.profile.output == [1.5]

    def test_float_condition(self):
        assert result_of(
            "int main() { float f = 0.5; if (f) { return 1; } return 0; }"
        ) == 1


class TestControlFlow:
    def test_if_else_chain(self):
        src = """
        int classify(int x) {
          if (x < 0) { return -1; }
          else if (x == 0) { return 0; }
          else { return 1; }
        }
        int main() { return classify(-5) * 100 + classify(0) * 10 + classify(9); }
        """
        assert result_of(src) == -99  # -1*100 + 0*10 + 1

    def test_while_loop(self):
        assert result_of(
            "int main() { int s = 0; int i = 0;"
            " while (i < 5) { s = s + i; i = i + 1; } return s; }"
        ) == 10

    def test_do_while_runs_once(self):
        assert result_of(
            "int main() { int n = 0; do { n = n + 1; } while (0); return n; }"
        ) == 1

    def test_for_loop(self):
        assert result_of(
            "int main() { int s = 0;"
            " for (int i = 1; i <= 10; i = i + 1) { s = s + i; } return s; }"
        ) == 55

    def test_break(self):
        assert result_of(
            "int main() { int i; for (i = 0; i < 100; i = i + 1)"
            " { if (i == 7) { break; } } return i; }"
        ) == 7

    def test_continue(self):
        assert result_of(
            "int main() { int s = 0; for (int i = 0; i < 10; i = i + 1)"
            " { if (i % 2) { continue; } s = s + i; } return s; }"
        ) == 20

    def test_nested_loops(self):
        assert result_of(
            "int main() { int s = 0; for (int i = 0; i < 3; i = i + 1)"
            " { for (int j = 0; j < 3; j = j + 1) { s = s + i * j; } }"
            " return s; }"
        ) == 9

    def test_short_circuit_and(self):
        src = """
        int g = 0;
        int bump() { g = g + 1; return 1; }
        int main() { int r = 0 && bump(); return g * 10 + r; }
        """
        assert result_of(src) == 0  # bump never called

    def test_short_circuit_or(self):
        src = """
        int g = 0;
        int bump() { g = g + 1; return 0; }
        int main() { int r = 1 || bump(); return g * 10 + r; }
        """
        assert result_of(src) == 1

    def test_ternary(self):
        assert result_of("int main() { int x = 3; return x > 2 ? 10 : 20; }") == 10

    def test_ternary_with_side_effect_arms_lowered_correctly(self):
        src = """
        int g = 0;
        int inc() { g = g + 1; return g; }
        int main() { int r = 1 ? inc() : inc(); return g * 10 + r; }
        """
        assert result_of(src) == 11  # only one arm evaluated

    def test_dead_code_after_return(self):
        assert result_of("int main() { return 1; return 2; }") == 1


class TestFunctions:
    def test_recursion(self):
        src = """
        int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
        int main() { return fact(6); }
        """
        assert result_of(src) == 720

    def test_mutual_recursion(self):
        src = """
        int is_odd(int n);
        int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }
        int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }
        int main() { return is_even(10) * 10 + is_odd(10); }
        """
        # Forward declarations are not in MiniC; restructure without them.
        src = """
        int helper(int n, int parity) {
          if (n == 0) { return parity; }
          return helper(n - 1, 1 - parity);
        }
        int main() { return helper(10, 1); }
        """
        assert result_of(src) == 1

    def test_void_function(self):
        src = """
        int g;
        void set(int v) { g = v; }
        int main() { set(42); return g; }
        """
        assert result_of(src) == 42

    def test_args_by_value(self):
        src = """
        int twice(int x) { x = x * 2; return x; }
        int main() { int a = 5; int b = twice(a); return a * 100 + b; }
        """
        assert result_of(src) == 510


class TestMemory:
    def test_global_scalar_init(self):
        assert result_of("int g = 41; int main() { return g + 1; }") == 42

    def test_global_array_init_and_zero_fill(self):
        assert result_of(
            "int t[5] = {1, 2}; int main() { return t[0] + t[1] + t[4]; }"
        ) == 3

    def test_global_float_array(self):
        r, interp = run(
            "float t[2] = {1.5, 2.5}; int main()"
            " { print_float(t[0] + t[1]); return 0; }"
        )
        assert interp.profile.output == [4.0]

    def test_array_store_load(self):
        assert result_of(
            "int t[10]; int main() { for (int i = 0; i < 10; i = i + 1)"
            " { t[i] = i * i; } return t[7]; }"
        ) == 49

    def test_malloc_and_pointers(self):
        assert result_of(
            "int main() { int *p = malloc(12); p[0] = 1; p[1] = 2; p[2] = 3;"
            " return p[0] + p[1] + p[2]; }"
        ) == 6

    def test_pointer_arithmetic(self):
        assert result_of(
            "int main() { int *p = malloc(12); *p = 10; *(p + 2) = 30;"
            " return p[0] + p[2]; }"
        ) == 40

    def test_pointer_argument(self):
        src = """
        void fill(int *buf, int n) {
          for (int i = 0; i < n; i = i + 1) { buf[i] = i + 1; }
        }
        int t[4];
        int main() { fill(t, 4); return t[0] + t[3]; }
        """
        assert result_of(src) == 5

    def test_struct_fields(self):
        src = """
        struct Point { int x; int y; float w; };
        struct Point g;
        int main() {
          g.x = 3; g.y = 4; g.w = 0.5;
          struct Point *p = &g;
          p->x = p->x + p->y;
          return g.x;
        }
        """
        assert result_of(src) == 7

    def test_pointer_through_global(self):
        src = """
        int a = 1;
        int b = 2;
        int *sel;
        int main() {
          sel = &a;
          *sel = 10;
          sel = &b;
          *sel = 20;
          return a + b;
        }
        """
        assert result_of(src) == 30

    def test_heap_pointer_stored_in_global(self):
        src = """
        int *gp;
        int main() {
          gp = malloc(8);
          gp[0] = 5; gp[1] = 6;
          return gp[0] * 10 + gp[1];
        }
        """
        assert result_of(src) == 56

    def test_unmapped_access_raises(self):
        with pytest.raises(InterpreterError, match="unmapped"):
            run("int main() { int *p = malloc(4); return p[100000]; }")


class TestInterpreterMachinery:
    def test_step_limit(self):
        with pytest.raises(StepLimitExceeded):
            run("int main() { while (1) { } return 0; }", max_steps=1000)

    def test_print_order(self):
        _, interp = run(
            "int main() { print_int(1); print_float(2.5); print_int(3); return 0; }"
        )
        assert interp.profile.output == [1, 2.5, 3]

    def test_block_counts(self):
        _, interp = run(
            "int main() { int s = 0; for (int i = 0; i < 5; i = i + 1)"
            " { s = s + 1; } return s; }"
        )
        counts = interp.profile.block_counts
        assert max(counts.values()) >= 5

    def test_heap_profile(self):
        _, interp = run(
            "int main() { int i; for (i = 0; i < 3; i = i + 1)"
            " { int *p = malloc(16); p[0] = i; } return 0; }"
        )
        sizes = interp.profile.heap_sizes
        assert sum(sizes.values()) == 48
        assert len(sizes) == 1  # one site, three allocations

    def test_access_counts_attributed_to_objects(self):
        _, interp = run(
            "int t[4]; int main() { t[0] = 1; t[1] = 2; return t[0] + t[1]; }"
        )
        totals = interp.profile.object_access_counts()
        assert totals["g:t"] == 4

    def test_module_verifies(self):
        module = compile_source("int t[4]; int main() { t[1] = 2; return t[1]; }")
        verify_module(module)

    def test_main_with_wrong_args(self):
        module = compile_source("int main() { return 0; }")
        with pytest.raises(InterpreterError):
            Interpreter(module).run([1, 2])


# A 42-step program: ``print_int`` mid-block in main, a call whose callee
# loops and prints, then more work after the call returns.
GUARD_SRC = """
int g[4];
int f(int x) {
  int s = 0;
  for (int i = 0; i < 3; i = i + 1) { s = s + x; }
  print_int(s);
  return s;
}
int main() {
  print_int(7);
  g[1] = f(2);
  print_int(g[1] + 1);
  return g[1];
}
"""
GUARD_STEPS = 42
GUARD_BLOCKS = {("main", "entry"): 1, ("f", "entry"): 1, ("f", "bb0"): 4,
                ("f", "bb1"): 3, ("f", "bb2"): 3, ("f", "bb3"): 1}


class TestStepGuard:
    """``max_steps`` stops the program at exactly the same operation, with
    exactly the same output, steps and block counts, wherever it falls.
    The expected values were recorded from the op-by-op interpreter."""

    @pytest.fixture(scope="class")
    def module(self):
        return compile_source(GUARD_SRC, "t")

    def test_exact_budget_runs(self, module):
        interp = Interpreter(module, max_steps=GUARD_STEPS)
        assert interp.run() == 6
        assert interp.steps == GUARD_STEPS
        assert interp.profile.instructions_executed == GUARD_STEPS
        assert interp.profile.output == [7, 6, 7]
        assert dict(interp.profile.block_counts) == GUARD_BLOCKS

    def test_one_step_short_raises(self, module):
        interp = Interpreter(module, max_steps=GUARD_STEPS - 1)
        with pytest.raises(StepLimitExceeded, match=f"exceeded {GUARD_STEPS - 1}"):
            interp.run()
        assert interp.steps == GUARD_STEPS
        assert interp.profile.output == [7, 6, 7]
        assert interp.profile.instructions_executed == 0

    @pytest.mark.parametrize("limit, output, blocks", [
        # the call to f, right after main's mid-block print_int
        (1, [7], {("main", "entry"): 1}),
        # f's first op: f's call and entry block are already recorded
        (2, [7], {("main", "entry"): 1, ("f", "entry"): 1}),
        # inside f's loop body
        (10, [7], {("main", "entry"): 1, ("f", "entry"): 1, ("f", "bb0"): 1,
                   ("f", "bb1"): 1, ("f", "bb2"): 1}),
        # f's ret, right after f's print_int
        (32, [7, 6], GUARD_BLOCKS),
        # main's ret, the last op
        (41, [7, 6, 7], GUARD_BLOCKS),
    ])
    def test_limit_inside_block(self, module, limit, output, blocks):
        interp = Interpreter(module, max_steps=limit)
        with pytest.raises(StepLimitExceeded):
            interp.run()
        assert interp.steps == limit + 1
        assert interp.profile.output == output
        assert dict(interp.profile.block_counts) == blocks
        assert interp.profile.call_counts["f"] == (0 if limit < 2 else 1)

    def test_every_limit_stops_at_its_step(self, module):
        full = [7, 6, 7]
        seen = []
        for limit in range(GUARD_STEPS):
            interp = Interpreter(module, max_steps=limit)
            with pytest.raises(StepLimitExceeded):
                interp.run()
            assert interp.steps == limit + 1
            output = interp.profile.output
            assert output == full[:len(output)]
            seen.append(len(output))
        assert seen == sorted(seen)
        assert seen.index(1) == 1 and seen.index(2) == 32 and seen.index(3) == 39


def _main_with_blocks(reached):
    """``main`` returning 0 from ``entry``, plus a block ``other`` that is
    entered only when ``reached``; returns (module, builder positioned in
    ``other``)."""
    module = Module("m")
    func = Function("main", [], INT)
    module.add_function(func)
    b = IRBuilder(func)
    entry, other = b.new_block("entry"), b.new_block("other")
    b.set_block(entry)
    if reached:
        b.br(other)
    else:
        b.ret(b.const(0))
    b.set_block(other)
    return module, func, b


class _Bogus:
    """An opcode no interpreter handles."""

    mnemonic = "bogus"


class TestRuntimeErrors:
    def test_uninitialised_register_read(self):
        module, func, b = _main_with_blocks(reached=True)
        never_set = func.new_vreg(INT, "u")
        b.ret(b.add(never_set, b.const(1)))
        with pytest.raises(InterpreterError,
                           match=f"uninitialised register {never_set}"):
            Interpreter(module).run()

    @pytest.mark.parametrize("bad, message", [
        (lambda func: Operation(_Bogus(), func.new_vreg(INT), [Constant(1)]),
         "cannot interpret opcode"),
        (lambda func: Operation(Opcode.MOV, func.new_vreg(INT),
                                [FunctionRef("main", INT)]),
         "not first-class"),
    ])
    @pytest.mark.parametrize("reached", [False, True])
    def test_bad_op_raises_only_when_executed(self, bad, message, reached):
        module, func, b = _main_with_blocks(reached)
        b.block.append(bad(func))
        b.ret(b.const(1))
        interp = Interpreter(module)
        if not reached:
            assert interp.run() == 0
            assert interp.steps == 1
            return
        with pytest.raises(InterpreterError, match=message):
            interp.run()
        assert interp.steps == 2


class TestInterpreterLifetime:
    """A finished interpreter holds no reference cycle: it and its memory
    are freed by reference counting alone, with the cycle collector off."""

    # A loop whose body calls and touches memory.
    SRC = """
    int t[4];
    int sq(int x) { return x * x; }
    int main() {
      int s = 0;
      for (int i = 0; i < 4; i = i + 1) { t[i] = sq(i); s = s + t[i]; }
      print_int(s);
      return s;
    }
    """

    @pytest.mark.parametrize("max_steps", [1000, 30])
    def test_freed_without_cycle_collector(self, max_steps):
        module = compile_source(self.SRC, "t")
        gc.disable()
        try:
            interp = Interpreter(module, max_steps=max_steps)
            try:
                interp.run()
            except StepLimitExceeded:
                pass
            refs = [weakref.ref(interp), weakref.ref(interp.memory)]
            del interp
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
