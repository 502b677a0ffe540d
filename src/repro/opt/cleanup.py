"""Copy propagation, local CSE, and dead-code elimination.

These are the classic cleanups a Trimaran-class compiler runs before
scheduling; lowering emits redundant copies (default initialisations
followed by real ones) and duplicated address arithmetic (``a[i]`` used
twice computes ``i*4`` twice) that would otherwise inflate every schedule.

All three passes are intra-block for values (sound without SSA) with a
global liveness-based DCE on top.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..analysis.cfg import CFG
from ..analysis.liveness import Liveness
from ..ir import Constant, Function, GlobalAddress, Module, Opcode, Operation, VirtualRegister


def propagate_copies(func: Function) -> int:
    """Within each block, replace uses of ``y`` after ``y = MOV x`` with
    ``x`` while neither register is redefined."""
    changed = 0
    for block in func:
        copy_of: Dict[int, VirtualRegister] = {}
        # Source vid -> vids recorded as its copies (possibly stale).
        copies_from: Dict[int, List[int]] = {}
        for op in block.ops:
            for i, src in enumerate(list(op.srcs)):
                if isinstance(src, VirtualRegister) and src.vid in copy_of:
                    op.srcs[i] = copy_of[src.vid]
                    changed += 1
            if op.dest is None:
                continue
            # Any redefinition invalidates copies of/through the register.
            vid = op.dest.vid
            copy_of.pop(vid, None)
            for copy_vid in copies_from.pop(vid, ()):
                source = copy_of.get(copy_vid)
                if source is not None and source.vid == vid:
                    del copy_of[copy_vid]
            if (
                op.opcode is Opcode.MOV
                and isinstance(op.srcs[0], VirtualRegister)
                and op.srcs[0].vid != vid
            ):
                copy_of[vid] = op.srcs[0]
                copies_from.setdefault(op.srcs[0].vid, []).append(vid)
    return changed


#: Pure opcodes eligible for common-subexpression elimination.
_CSE_OPCODES = {
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.NOT, Opcode.NEG, Opcode.SHL, Opcode.SHR, Opcode.PTRADD,
    Opcode.CMPEQ, Opcode.CMPNE, Opcode.CMPLT, Opcode.CMPLE, Opcode.CMPGT,
    Opcode.CMPGE, Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FNEG,
    Opcode.ITOF, Opcode.FTOI, Opcode.SELECT,
}


def _value_key(v, versions: Dict[int, int]):
    if isinstance(v, VirtualRegister):
        return ("r", v.vid, versions.get(v.vid, 0))
    if isinstance(v, Constant):
        return ("c", v.value, str(v.ty))
    if isinstance(v, GlobalAddress):
        return ("g", v.symbol)
    return ("?", id(v))


def eliminate_common_subexpressions(func: Function) -> int:
    """Local (per-block) CSE over pure operations: a repeated computation
    with identical (version-aware) sources becomes a MOV of the first
    result, provided the first result register is not redefined between
    the two sites."""
    changed = 0
    for block in func:
        versions: Dict[int, int] = {}
        available: Dict[Tuple, VirtualRegister] = {}
        # Result vid -> the keys ``available`` maps to that register.
        keys_of: Dict[int, List[Tuple]] = {}
        for op in block.ops:
            key: Optional[Tuple] = None
            if op.opcode in _CSE_OPCODES and op.dest is not None:
                key = (
                    op.opcode.name,
                    tuple(_value_key(s, versions) for s in op.srcs),
                )
                prior = available.get(key)
                if prior is not None:
                    op.opcode = Opcode.MOV
                    op.srcs = [prior]
                    changed += 1
                    key = None  # the MOV result aliases prior; don't record
            if op.dest is not None:
                vid = op.dest.vid
                versions[vid] = versions.get(vid, 0) + 1
                # Invalidate expressions whose result register was clobbered.
                for stale in keys_of.pop(vid, ()):
                    del available[stale]
                if key is not None:
                    available[key] = op.dest
                    keys_of.setdefault(vid, []).append(key)
    return changed


#: Opcodes with side effects: never removable even if the result is dead.
_SIDE_EFFECTS = {
    Opcode.STORE, Opcode.CALL, Opcode.BR, Opcode.CBR, Opcode.RET,
    Opcode.MALLOC, Opcode.LOAD, Opcode.DIV, Opcode.REM, Opcode.FDIV,
    Opcode.ICMOVE,
}
# LOAD/DIV/REM/FDIV can fault in this model (unmapped address, divide by
# zero), MALLOC changes the heap profile, ICMOVE is placement-relevant —
# keep them all.


def eliminate_dead_code(func: Function, cfg: Optional[CFG] = None) -> int:
    """Remove pure operations whose results are never used (liveness-based,
    iterated to a fixed point).

    ``cfg`` may be passed in by a caller that knows the terminators did
    not change since it was built.  Liveness is re-solved only when a
    removed op read a register in its block's upward-exposed use set:
    removing any other dead op cannot change a block's live-in set, and a
    second sweep under unchanged liveness would remove nothing.
    """
    cfg = cfg or CFG(func)
    removed_total = 0
    while True:
        live = Liveness(func, cfg)
        removed = 0
        resolve = False
        for block in func:
            live_now: Set[int] = set(live.live_out_of(block.name))
            exposed = live.use[block.name]
            keep: List[Operation] = []
            for op in reversed(block.ops):
                is_dead = (
                    op.dest is not None
                    and op.dest.vid not in live_now
                    and op.opcode not in _SIDE_EFFECTS
                )
                if is_dead:
                    removed += 1
                    if not resolve:
                        resolve = any(
                            src.vid in exposed for src in op.register_srcs()
                        )
                    continue
                keep.append(op)
                if op.dest is not None:
                    live_now.discard(op.dest.vid)
                for src in op.register_srcs():
                    live_now.add(src.vid)
            keep.reverse()
            block.ops = keep
        removed_total += removed
        if not resolve:
            return removed_total


def optimize_function(func: Function, max_iterations: int = 4) -> int:
    """Run fold -> copy-prop -> CSE -> DCE to a fixed point.  No pass
    changes a terminator, so one CFG serves every DCE round."""
    from .constfold import fold_constants

    cfg = CFG(func)
    total = 0
    for _ in range(max_iterations):
        changed = fold_constants(func)
        changed += propagate_copies(func)
        changed += eliminate_common_subexpressions(func)
        changed += eliminate_dead_code(func, cfg)
        total += changed
        if changed == 0:
            break
    return total


def optimize_module(module: Module, max_iterations: int = 4) -> int:
    """Optimize every function; returns total rewrites+removals."""
    return sum(optimize_function(f, max_iterations) for f in module)
