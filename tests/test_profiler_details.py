"""Focused tests for memory layout and profile-data bookkeeping."""

import pytest

from repro.lang import compile_source
from repro.profiler import Interpreter, Memory, ProfileData
from repro.profiler.memory import _align, _wrap32


class TestMemoryLayout:
    def _memory(self, src):
        return Memory(compile_source(src, "t"))

    def test_globals_get_distinct_ranges(self):
        mem = self._memory("int a[4]; int b[4]; int main() { return 0; }")
        a, b = mem.address_of_global("a"), mem.address_of_global("b")
        assert a != b
        assert abs(a - b) >= 16

    def test_object_at_boundaries(self):
        mem = self._memory("int a[4]; int b; int main() { return 0; }")
        a = mem.address_of_global("a")
        assert mem.object_at(a) == "g:a"
        assert mem.object_at(a + 15) == "g:a"
        b = mem.address_of_global("b")
        assert mem.object_at(b) == "g:b"

    def test_unmapped_address(self):
        mem = self._memory("int a; int main() { return 0; }")
        assert mem.object_at(0) is None
        assert mem.object_at(0x7FFF_FFFF) is None

    def test_initializers_loaded(self):
        mem = self._memory(
            "int t[4] = {10, -20, 30}; float f = 1.5;"
            " int main() { return 0; }"
        )
        base = mem.address_of_global("t")
        assert mem.load(base, False) == 10
        assert mem.load(base + 4, False) == -20
        assert mem.load(base + 12, False) == 0  # zero fill
        assert mem.load(mem.address_of_global("f"), True) == 1.5

    def test_malloc_ranges_tracked(self):
        mem = self._memory("int main() { return 0; }")
        p1 = mem.malloc(16, "site1")
        p2 = mem.malloc(8, "site2")
        assert mem.object_at(p1) == "h:site1"
        assert mem.object_at(p1 + 15) == "h:site1"
        assert mem.object_at(p2) == "h:site2"
        assert p2 >= p1 + 16

    def test_malloc_zero_size_still_valid(self):
        mem = self._memory("int main() { return 0; }")
        p = mem.malloc(0, "s")
        assert mem.object_at(p) == "h:s"

    def test_store_load_roundtrip(self):
        mem = self._memory("int main() { return 0; }")
        p = mem.malloc(8, "s")
        mem.store(p, -12345)
        assert mem.load(p, False) == -12345
        mem.store(p, 2.25)
        assert mem.load(p, True) == 2.25

    def test_int_float_view_coercion(self):
        mem = self._memory("int main() { return 0; }")
        p = mem.malloc(8, "s")
        mem.store(p, 7)
        assert mem.load(p, True) == 7.0
        mem.store(p, 3.9)
        assert mem.load(p, False) == 3

    def test_default_zero(self):
        mem = self._memory("int main() { return 0; }")
        p = mem.malloc(8, "s")
        assert mem.load(p, False) == 0
        assert mem.load(p, True) == 0.0


class TestHelpers:
    def test_align(self):
        assert _align(0, 8) == 0
        assert _align(1, 8) == 8
        assert _align(8, 8) == 8
        assert _align(9, 4) == 12

    def test_wrap32_edges(self):
        assert _wrap32(2**31) == -(2**31)
        assert _wrap32(-(2**31) - 1) == 2**31 - 1
        assert _wrap32(2**32) == 0


class TestProfileData:
    def test_frequency_fn(self):
        profile = ProfileData()
        profile.record_block("f", "b")
        profile.record_block("f", "b")
        fn = profile.frequency_fn()
        assert fn("f", "b") == 2.0
        assert fn("f", "other") == 0.0

    def test_op_frequency(self):
        profile = ProfileData()
        profile.record_access(7, "g:a")
        profile.record_access(7, "g:a")
        profile.record_access(7, "g:b")
        assert profile.op_frequency(7) == 3
        assert profile.op_frequency(8) == 0

    def test_object_access_counts(self):
        profile = ProfileData()
        profile.record_access(1, "g:a")
        profile.record_access(2, "g:a")
        profile.record_access(2, "g:b")
        totals = profile.object_access_counts()
        assert totals["g:a"] == 2 and totals["g:b"] == 1

    def test_heap_sizes_accumulate(self):
        profile = ProfileData()
        profile.record_malloc("h:s", 16)
        profile.record_malloc("h:s", 16)
        assert profile.heap_sizes["h:s"] == 32

    def test_call_counts(self):
        src = """
        int f(int x) { return x; }
        int main() { return f(1) + f(2) + f(3); }
        """
        interp = Interpreter(compile_source(src, "t"))
        interp.run()
        assert interp.profile.call_counts["f"] == 3
        assert interp.profile.call_counts["main"] == 1
