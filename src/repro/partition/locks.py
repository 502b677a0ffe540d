"""Memory-operation cluster locks derived from data-object homes.

Once phase 1 fixes every object's home cluster, each load/store (and each
``malloc``) is locked to the home of the object(s) it accesses — Section
3.4: "all memory access operations will always be placed on their assigned
clusters".
"""

from __future__ import annotations

from typing import Dict

from ..ir import Module, Opcode


def memory_locks(
    module: Module,
    object_home: Dict[str, int],
    access_counts: Dict[str, int],
) -> Dict[int, int]:
    """Op uid -> cluster for every memory operation in the module.

    When an operation may touch objects homed on different clusters (only
    possible for schemes that place objects independently, e.g. Naïve),
    the home of the most-accessed object wins; ``access_counts`` maps
    object ids to dynamic access counts for that tie-break.
    """
    locks: Dict[int, int] = {}
    for func in module:
        for op in func.operations():
            if not (op.is_memory_access() or op.opcode is Opcode.MALLOC):
                continue
            objs = [o for o in op.mem_objects() if o in object_home]
            if not objs:
                continue
            homes = {object_home[o] for o in objs}
            if len(homes) == 1:
                locks[op.uid] = homes.pop()
            else:
                best = max(
                    objs, key=lambda o: (access_counts.get(o, 0), o)
                )
                locks[op.uid] = object_home[best]
    return locks
