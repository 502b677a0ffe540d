"""Type system for the repro IR.

The IR is typed just enough to drive the three consumers that need types:

* the MiniC frontend (element sizes for address arithmetic),
* the points-to analysis (which values may hold addresses),
* the profiling interpreter (access widths in the byte-addressed memory).

Sizes follow a conventional 32-bit embedded ABI: ``int`` is 4 bytes,
``float`` is 8 bytes (a C ``double``), pointers are 4 bytes.
"""

from __future__ import annotations

from typing import List, Tuple


class IRType:
    """Base class for all IR types.

    Types are immutable value objects: two structurally equal types compare
    equal and hash equally, so they can be used freely as dict keys.
    """

    def size(self) -> int:
        """Size of a value of this type in bytes."""
        raise NotImplementedError

    def is_pointer(self) -> bool:
        return False

    def is_integer(self) -> bool:
        return False

    def is_float(self) -> bool:
        return False

    def is_aggregate(self) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> tuple:
        return ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return str(self)


class VoidType(IRType):
    """The absence of a value (function returns only)."""

    def size(self) -> int:
        return 0

    def __str__(self) -> str:
        return "void"


class IntType(IRType):
    """Signed two's-complement integer of a fixed bit width."""

    def __init__(self, bits: int = 32):
        if bits not in (1, 8, 16, 32, 64):
            raise ValueError(f"unsupported integer width: {bits}")
        self.bits = bits

    def size(self) -> int:
        return max(1, self.bits // 8)

    def is_integer(self) -> bool:
        return True

    def _key(self) -> tuple:
        return (self.bits,)

    def __str__(self) -> str:
        return f"i{self.bits}"


class FloatType(IRType):
    """IEEE-754 double precision floating point."""

    def size(self) -> int:
        return 8

    def is_float(self) -> bool:
        return True

    def __str__(self) -> str:
        return "f64"


class PointerType(IRType):
    """Pointer to a pointee type. All pointers are 4 bytes."""

    def __init__(self, pointee: IRType):
        self.pointee = pointee

    def size(self) -> int:
        return 4

    def is_pointer(self) -> bool:
        return True

    def _key(self) -> tuple:
        return (self.pointee,)

    def __str__(self) -> str:
        return f"{self.pointee}*"


class ArrayType(IRType):
    """Fixed-length array of a scalar or aggregate element type."""

    def __init__(self, element: IRType, count: int):
        if count < 0:
            raise ValueError("array count must be non-negative")
        self.element = element
        self.count = count

    def size(self) -> int:
        return self.element.size() * self.count

    def is_aggregate(self) -> bool:
        return True

    def _key(self) -> tuple:
        return (self.element, self.count)

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"


class StructType(IRType):
    """A named record with ordered fields.

    Field layout is sequential with no padding beyond natural alignment to
    4 bytes; ``offset_of`` exposes the byte offset used by the frontend to
    lower field accesses into explicit ``PTRADD`` address arithmetic.
    """

    def __init__(self, name: str, fields: List[Tuple[str, IRType]]):
        self.name = name
        self.fields = list(fields)
        self._offsets = {}
        offset = 0
        for fname, ftype in self.fields:
            align = min(ftype.size(), 8) or 1
            if align and offset % align:
                offset += align - (offset % align)
            self._offsets[fname] = offset
            offset += ftype.size()
        self._size = offset

    def size(self) -> int:
        return self._size

    def is_aggregate(self) -> bool:
        return True

    def offset_of(self, field: str) -> int:
        if field not in self._offsets:
            raise KeyError(f"struct {self.name} has no field {field!r}")
        return self._offsets[field]

    def field_type(self, field: str) -> IRType:
        for fname, ftype in self.fields:
            if fname == field:
                return ftype
        raise KeyError(f"struct {self.name} has no field {field!r}")

    def has_field(self, field: str) -> bool:
        return field in self._offsets

    def _key(self) -> tuple:
        return (self.name, tuple(self.fields))

    def __str__(self) -> str:
        return f"struct.{self.name}"


# Shared singletons for the common scalar types.
VOID = VoidType()
INT = IntType(32)
I1 = IntType(1)
FLOAT = FloatType()
