"""Byte-addressed memory model for the IR interpreter.

Globals are laid out once at construction; ``malloc`` bumps a heap pointer.
Each address range is registered to a data-object id so the profiler can
attribute every dynamic access to the object it touches — the information
the paper gathers with execution profiling.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Union

from ..ir import Module
from ..ir.types import ArrayType, FloatType, IntType, PointerType, StructType
from ..analysis.pointsto import global_object_id, heap_object_id

_GLOBAL_BASE = 0x1000
_HEAP_BASE = 0x4000_0000
_ALIGN = 8


class MemoryError_(Exception):
    """Out-of-range or unmapped memory access during interpretation."""


class Memory:
    """Flat scalar-granular memory with object-range bookkeeping."""

    def __init__(self, module: Module):
        self.module = module
        self.cells: Dict[int, Union[int, float]] = {}
        self.global_base: Dict[str, int] = {}
        # Parallel arrays sorted by start address: the object ranges the
        # interpreter's memory ops look addresses up in.
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.ids: List[str] = []
        self._heap_next = _HEAP_BASE
        self._layout_globals()

    # -- layout -----------------------------------------------------------------

    def _layout_globals(self) -> None:
        addr = _GLOBAL_BASE
        for gvar in self.module.globals.values():
            size = max(gvar.size(), 1)
            addr = _align(addr, _ALIGN)
            self.global_base[gvar.name] = addr
            self._register(addr, size, global_object_id(gvar.name))
            self._initialize(gvar, addr)
            addr += size

    def _initialize(self, gvar, base: int) -> None:
        init = gvar.initializer
        if init is None:
            return
        ty = gvar.ty
        if isinstance(ty, ArrayType):
            elem_size = ty.element.size()
            values = init if isinstance(init, (list, tuple)) else [init]
            for i, value in enumerate(values):
                if ty.element.is_float():
                    self.cells[base + i * elem_size] = float(value)
                else:
                    self.cells[base + i * elem_size] = _wrap32(int(value))
        else:
            if ty.is_float():
                self.cells[base] = float(init)
            else:
                self.cells[base] = _wrap32(int(init))

    def _register(self, start: int, size: int, obj_id: str) -> None:
        idx = bisect.bisect_left(self.starts, start)
        self.starts.insert(idx, start)
        self.ends.insert(idx, start + size)
        self.ids.insert(idx, obj_id)

    # -- allocation -----------------------------------------------------------------

    def malloc(self, size: int, site: str) -> int:
        size = max(int(size), 1)
        addr = _align(self._heap_next, _ALIGN)
        self._heap_next = addr + size
        self._register(addr, size, heap_object_id(site))
        return addr

    # -- access -----------------------------------------------------------------------

    def load(self, addr: int, is_float: bool) -> Union[int, float]:
        value = self.cells.get(addr)
        if value is None:
            return 0.0 if is_float else 0
        if is_float and isinstance(value, int):
            return float(value)
        if not is_float and isinstance(value, float):
            return _wrap32(int(value))
        return value

    def store(self, addr: int, value: Union[int, float]) -> None:
        self.cells[addr] = value

    def object_at(self, addr: int) -> Optional[str]:
        """Data-object id whose range covers ``addr`` (None if unmapped)."""
        idx = bisect.bisect_right(self.starts, addr) - 1
        if idx >= 0 and addr < self.ends[idx]:
            return self.ids[idx]
        return None

    def address_of_global(self, name: str) -> int:
        return self.global_base[name]


def _align(addr: int, alignment: int) -> int:
    rem = addr % alignment
    return addr if rem == 0 else addr + alignment - rem


def _wrap32(value: int) -> int:
    """Wrap to signed 32-bit two's complement."""
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value
