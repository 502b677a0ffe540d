"""Data-object model: the entities the Global Data Partitioner places.

A :class:`DataObject` is one unit of memory placement — a global variable
or a heap allocation site.  Composite objects (arrays, structs) are never
split across clusters, exactly as in the paper.  Sizes come from the type
for globals and from the heap profile for allocation sites.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..ir import Module, Opcode, Operation
from .pointsto import global_object_id, heap_object_id


class DataObject:
    """One partitionable memory object."""

    def __init__(self, obj_id: str, kind: str, name: str, size: int):
        self.id = obj_id
        self.kind = kind  # "global" | "heap"
        self.name = name
        self.size = size  # bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<object {self.id} ({self.size} bytes)>"


#: Bytes an allocation site without a profiled size is taken to hold.
DEFAULT_HEAP_SIZE = 64


class ObjectTable:
    """All data objects of a module, with sizes and accessor op lists.

    ``heap_sizes`` maps allocation-site ids (``h:<site>``) to profiled byte
    totals; unprofiled sites default to :data:`DEFAULT_HEAP_SIZE` so the
    partitioner still has a balance signal before profiling.
    """

    def __init__(
        self,
        module: Module,
        heap_sizes: Optional[Dict[str, int]] = None,
    ):
        self.module = module
        self.objects: Dict[str, DataObject] = {}
        self.accessors: Dict[str, List[Operation]] = {}
        heap_sizes = heap_sizes or {}

        for gvar in module.globals.values():
            obj_id = global_object_id(gvar.name)
            self.objects[obj_id] = DataObject(
                obj_id, "global", gvar.name, gvar.size()
            )
        for func in module:
            for op in func.operations():
                if op.opcode is Opcode.MALLOC:
                    site = op.attrs["site"]
                    obj_id = heap_object_id(site)
                    size = heap_sizes.get(obj_id, DEFAULT_HEAP_SIZE)
                    self.objects[obj_id] = DataObject(obj_id, "heap", site, size)

        for func in module:
            for op in func.operations():
                if op.is_memory_access():
                    for obj_id in op.mem_objects():
                        self.accessors.setdefault(obj_id, []).append(op)

    # -- queries ----------------------------------------------------------------

    def __contains__(self, obj_id: str) -> bool:
        return obj_id in self.objects

    def __getitem__(self, obj_id: str) -> DataObject:
        return self.objects[obj_id]

    def __iter__(self):
        return iter(self.objects.values())

    def __len__(self) -> int:
        return len(self.objects)

    def ids(self) -> List[str]:
        return list(self.objects)

    def total_size(self) -> int:
        return sum(o.size for o in self.objects.values())

    def size_of(self, obj_ids: Iterable[str]) -> int:
        return sum(self.objects[o].size for o in obj_ids if o in self.objects)

    def accessed_ids(self) -> List[str]:
        """Objects with at least one static load/store."""
        return [o for o in self.objects if self.accessors.get(o)]
