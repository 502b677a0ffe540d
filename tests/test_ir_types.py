"""Unit tests for the IR type system."""

import pytest

from repro.ir.types import (
    FLOAT,
    INT,
    VOID,
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    StructType,
    VoidType,
)


class TestScalarTypes:
    def test_int_size(self):
        assert INT.size() == 4
        assert IntType(8).size() == 1
        assert IntType(16).size() == 2
        assert IntType(64).size() == 8

    def test_int_bit_width_validation(self):
        with pytest.raises(ValueError):
            IntType(7)

    def test_float_size(self):
        assert FLOAT.size() == 8

    def test_void_size(self):
        assert VOID.size() == 0

    def test_predicates(self):
        assert INT.is_integer() and not INT.is_float() and not INT.is_pointer()
        assert FLOAT.is_float() and not FLOAT.is_integer()
        assert not VOID.is_integer() and not VOID.is_float()

    def test_equality_and_hash(self):
        assert IntType(32) == INT
        assert hash(IntType(32)) == hash(INT)
        assert IntType(16) != IntType(32)
        assert FloatType() == FLOAT
        assert VoidType() == VOID
        assert INT != FLOAT

    def test_str(self):
        assert str(INT) == "i32"
        assert str(FLOAT) == "f64"
        assert str(VOID) == "void"


class TestPointerTypes:
    def test_size_fixed(self):
        assert PointerType(INT).size() == 4
        assert PointerType(FLOAT).size() == 4

    def test_is_pointer(self):
        assert PointerType(INT).is_pointer()

    def test_nested(self):
        pp = PointerType(PointerType(INT))
        assert pp.pointee == PointerType(INT)
        assert str(pp) == "i32**"

    def test_equality(self):
        assert PointerType(INT) == PointerType(INT)
        assert PointerType(INT) != PointerType(FLOAT)


class TestArrayTypes:
    def test_size(self):
        assert ArrayType(INT, 10).size() == 40
        assert ArrayType(FLOAT, 4).size() == 32

    def test_zero_length(self):
        assert ArrayType(INT, 0).size() == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ArrayType(INT, -1)

    def test_aggregate(self):
        assert ArrayType(INT, 4).is_aggregate()

    def test_str(self):
        assert str(ArrayType(INT, 8)) == "[8 x i32]"


class TestStructTypes:
    def test_offsets_sequential(self):
        s = StructType("P", [("x", INT), ("y", INT)])
        assert s.offset_of("x") == 0
        assert s.offset_of("y") == 4
        assert s.size() == 8

    def test_alignment_padding(self):
        s = StructType("Q", [("a", INT), ("b", FLOAT)])
        assert s.offset_of("a") == 0
        assert s.offset_of("b") == 8  # f64 aligned to 8
        assert s.size() == 16

    def test_field_type(self):
        s = StructType("P", [("x", INT), ("f", FLOAT)])
        assert s.field_type("x") == INT
        assert s.field_type("f") == FLOAT

    def test_missing_field(self):
        s = StructType("P", [("x", INT)])
        with pytest.raises(KeyError):
            s.offset_of("nope")
        with pytest.raises(KeyError):
            s.field_type("nope")
        assert not s.has_field("nope")
        assert s.has_field("x")

    def test_pointer_field(self):
        s = StructType("Node", [("value", INT), ("next", PointerType(INT))])
        assert s.offset_of("next") == 4
        assert s.size() == 8

    def test_equality_by_name_and_fields(self):
        a = StructType("P", [("x", INT)])
        b = StructType("P", [("x", INT)])
        c = StructType("P", [("x", FLOAT)])
        assert a == b
        assert a != c

