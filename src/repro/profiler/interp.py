"""Direct IR interpreter with profiling.

Executes a module starting at ``main`` with C-like semantics: 32-bit
wrapping signed integer arithmetic, truncating division, arithmetic right
shift, IEEE doubles for ``f64``.  While running it fills a
:class:`~repro.profiler.profiledata.ProfileData` with block counts,
per-object access counts and heap allocation sizes.

Each function is decoded once, on its first call, into blocks of
closures.  Operands are resolved up front: constants and global addresses
are bound, and a register read is a lookup in the frame's register dict.
Branch targets point at decoded blocks, and each memory op binds its uid,
its access width and the memory's object-range lists.  A block's closures
are cut into segments at each ``CALL`` and at the terminator, so the step
count is added once per segment while a callee still sees exactly the
count an op-by-op run gives; a segment that would cross ``max_steps``
runs op by op instead.  The decoded tables live only for one
:meth:`Interpreter.run`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..ir import (
    BasicBlock,
    Constant,
    Function,
    FunctionRef,
    GlobalAddress,
    Module,
    Opcode,
    Operation,
    VirtualRegister,
)
from ..ir.ops import TERMINATORS
from .memory import Memory, _wrap32
from .profiledata import ProfileData

Regs = Dict[int, Union[int, float]]
Closure = Callable[[Regs], object]
#: A decoded block: ``((func, block) count key, segments, branch, ret)``.
#: ``segments`` is a list of ``(steps, closures)``; the last segment's
#: steps include the terminator's.  ``branch(regs)`` returns the index of
#: the next block in its function's decoded tuple; a returning block has
#: no branch and ``ret(regs)`` gives the return value.
Block = Tuple[Tuple[str, str], List[Tuple[int, Tuple[Closure, ...]]],
              Optional[Closure], Optional[Closure]]


class InterpreterError(Exception):
    """Runtime failure during interpretation (bad access, step limit...)."""


class StepLimitExceeded(InterpreterError):
    """The program ran longer than the configured instruction budget."""


class Interpreter:
    """Executes a module and gathers an execution profile."""

    def __init__(self, module: Module, max_steps: int = 50_000_000):
        self.module = module
        self.memory = Memory(module)
        self.profile = ProfileData()
        self.max_steps = max_steps
        self._steps = 0
        #: function name -> decoded blocks, entry first, while ``run`` runs.
        self._code: Optional[Dict[str, Tuple[Block, ...]]] = None

    # -- public API ----------------------------------------------------------------

    def run(self, args: Optional[List[Union[int, float]]] = None) -> Union[int, float, None]:
        """Execute ``main`` and return its result."""
        self._code = {}
        try:
            result = self._call(self.module.main, args or [])
        finally:
            # Call closures hold ``self._call``; dropping the tables breaks
            # that cycle, so a finished interpreter and its memory are
            # freed without waiting for the cycle collector.
            self._code = None
        self.profile.instructions_executed = self._steps
        return result

    @property
    def steps(self) -> int:
        return self._steps

    # -- execution ----------------------------------------------------------------------

    def _call(self, func: Function, args: List[Union[int, float]]):
        if len(args) != len(func.params):
            raise InterpreterError(
                f"{func.name} expects {len(func.params)} args, got {len(args)}"
            )
        blocks = self._code.get(func.name)
        if blocks is None:
            blocks = self._code[func.name] = self._decode(func)
        regs = {param.vid: arg for param, arg in zip(func.params, args)}
        self.profile.call_counts[func.name] += 1
        block_counts = self.profile.block_counts
        max_steps = self.max_steps
        key, segments, branch, ret = blocks[0]
        try:
            while True:
                block_counts[key] += 1
                for count, closures in segments:
                    steps = self._steps + count
                    if steps > max_steps:
                        self._crawl(closures, regs)
                    self._steps = steps
                    pending = iter(closures)
                    try:
                        for closure in pending:
                            closure(regs)
                    except BaseException:
                        # Uncount the ops the failure kept from running.
                        self._steps -= (count - len(closures)
                                        + sum(1 for _ in pending))
                        raise
                if branch is None:
                    return ret(regs)
                key, segments, branch, ret = blocks[branch(regs)]
        except KeyError as exc:
            reg = _register_named(func, exc)
            if reg is None:
                raise
            raise InterpreterError(
                f"read of uninitialised register {reg}"
            ) from None

    def _crawl(self, closures: Tuple[Closure, ...], regs: Regs) -> None:
        """Run a segment that crosses ``max_steps`` op by op and raise at
        the op the limit falls on -- at the latest the block's terminator,
        the one op a segment counts without a closure."""
        for closure in closures:
            self._steps += 1
            if self._steps > self.max_steps:
                break
            closure(regs)
        else:
            self._steps += 1
        raise StepLimitExceeded(
            f"exceeded {self.max_steps} interpreted operations"
        )

    # -- decoding -----------------------------------------------------------------------

    def _decode(self, func: Function) -> Tuple[Block, ...]:
        """Decode every block of ``func``, in order, so the entry comes
        first.  Branches name their targets by index: a decoded block
        refers to no other, so the tables hold no reference cycle."""
        index = {name: i for i, name in enumerate(func.blocks)}
        return tuple(self._decode_block(func, block, index) for block in func)

    def _decode_block(
        self, func: Function, block: BasicBlock, index: Dict[str, int]
    ) -> Block:
        key = (func.name, block.name)
        segments: List[Tuple[int, Tuple[Closure, ...]]] = []
        closures: List[Closure] = []
        for op in block.ops:
            if op.opcode in TERMINATORS:
                segments.append((len(closures) + 1, tuple(closures)))
                try:
                    branch, ret = self._decode_terminator(op, func, index)
                except InterpreterError as exc:
                    branch, ret = _raiser(exc), None
                return key, segments, branch, ret
            try:
                closures.append(self._decode_op(op))
            except InterpreterError as exc:
                closures.append(_raiser(exc))
            if op.opcode is Opcode.CALL:
                segments.append((len(closures), tuple(closures)))
                closures = []
        if closures:
            segments.append((len(closures), tuple(closures)))
        fell_through = InterpreterError(
            f"block {func.name}/{block.name} fell through"
        )
        return key, segments, _raiser(fell_through), None

    def _decode_terminator(
        self, op: Operation, func: Function, index: Dict[str, int]
    ) -> Tuple[Optional[Closure], Optional[Closure]]:
        """``(branch, ret)`` for a ``BR``/``CBR``/``RET``."""
        if op.opcode is Opcode.RET:
            if not op.srcs:
                return None, _slot_reader("c", None)
            return None, self._getter(op.srcs[0])

        def target(name: str) -> int:
            if name not in index:
                raise InterpreterError(
                    f"{func.name} branches to unknown block {name!r}"
                )
            return index[name]

        taken = target(op.targets[0])
        if op.opcode is Opcode.BR:
            return (lambda regs: taken), None
        other = target(op.targets[1])
        cond_of = self._getter(op.srcs[0])

        def branch(regs):
            return taken if cond_of(regs) != 0 else other
        return branch, None

    def _decode_op(self, op: Operation) -> Closure:
        opcode = op.opcode
        handler = _HANDLERS.get(opcode)
        if handler is not None:
            return self._decode_compute(op, handler)
        if opcode is Opcode.MOV or opcode is Opcode.ICMOVE:
            return self._decode_move(op)
        if opcode is Opcode.LOAD:
            return self._decode_load(op)
        if opcode is Opcode.STORE:
            return self._decode_store(op)
        if opcode is Opcode.MALLOC:
            return self._decode_malloc(op)
        if opcode is Opcode.CALL:
            return self._decode_call(op)
        raise InterpreterError(f"cannot interpret opcode {opcode}")

    def _slot(self, v) -> Tuple[str, object]:
        """``("r", vid)`` for a register, ``("c", value)`` for a value
        fixed for the whole run, ``("g", getter)`` for an operand that
        fails when read."""
        if isinstance(v, VirtualRegister):
            return "r", v.vid
        if isinstance(v, Constant):
            return "c", v.value
        if isinstance(v, GlobalAddress):
            if v.symbol in self.memory.global_base:
                return "c", self.memory.address_of_global(v.symbol)
            error = InterpreterError(f"unknown global {v.symbol!r}")
        elif isinstance(v, FunctionRef):
            error = InterpreterError("function references are not first-class")
        else:
            error = InterpreterError(f"unknown value kind {v!r}")
        return "g", _raiser(error)

    def _getter(self, v) -> Closure:
        return _slot_reader(*self._slot(v))

    def _decode_compute(self, op: Operation, handler) -> Closure:
        """``dest = handler(*srcs)``, specialised for the common shapes."""
        d = op.dest.vid
        slots = [self._slot(v) for v in op.srcs]
        shape = "".join(kind for kind, _ in slots)
        if shape == "rr":
            (_, a), (_, b) = slots

            def compute(regs):
                regs[d] = handler(regs[a], regs[b])
        elif shape == "rc":
            (_, a), (_, b) = slots

            def compute(regs):
                regs[d] = handler(regs[a], b)
        elif shape == "cr":
            (_, a), (_, b) = slots

            def compute(regs):
                regs[d] = handler(a, regs[b])
        elif shape == "r":
            ((_, a),) = slots

            def compute(regs):
                regs[d] = handler(regs[a])
        else:
            getters = [_slot_reader(*slot) for slot in slots]

            def compute(regs):
                regs[d] = handler(*[get(regs) for get in getters])
        return compute

    def _decode_move(self, op: Operation) -> Closure:
        d = op.dest.vid
        src_of = self._getter(op.srcs[0])

        def move(regs):
            regs[d] = src_of(regs)
        return move

    def _touch(self, op: Operation, width: int) -> Callable[[int], None]:
        """Attribute one access of ``op`` at an address to the object
        covering it: its count and its byte-region envelope."""
        memory, profile = self.memory, self.profile
        starts, ends, ids = memory.starts, memory.ends, memory.ids
        op_counts, op_regions = profile.op_object_counts, profile.op_object_regions
        uid = op.uid
        counts: Optional[Counter] = None
        regions: Optional[Dict[str, Tuple[int, int]]] = None

        def touch(addr: int) -> None:
            nonlocal counts, regions
            i = bisect_right(starts, addr) - 1
            if i < 0 or addr >= ends[i]:
                raise InterpreterError(
                    f"access to unmapped address {addr:#x} by op {op}"
                )
            obj = ids[i]
            lo = addr - starts[i]
            hi = lo + width
            if counts is None:
                # First access: the profile's entries appear in first-
                # execution order.
                counts = op_counts.setdefault(uid, Counter())
                regions = op_regions.setdefault(uid, {})
            counts[obj] += 1
            prev = regions.get(obj)
            if prev is None:
                regions[obj] = (lo, hi)
            elif lo < prev[0] or hi > prev[1]:
                regions[obj] = (min(prev[0], lo), max(prev[1], hi))

        return touch

    def _decode_load(self, op: Operation) -> Closure:
        d = op.dest.vid
        is_float = op.dest.ty.is_float()
        addr_of = self._getter(op.srcs[0])
        touch = self._touch(op, max(op.dest.ty.size(), 1))
        load = self.memory.load

        def run_load(regs):
            addr = int(addr_of(regs))
            touch(addr)
            regs[d] = load(addr, is_float)
        return run_load

    def _decode_store(self, op: Operation) -> Closure:
        value_of = self._getter(op.srcs[0])
        addr_of = self._getter(op.srcs[1])
        touch = self._touch(op, max(op.srcs[0].ty.size(), 1))
        store = self.memory.store

        def run_store(regs):
            value = value_of(regs)
            addr = int(addr_of(regs))
            touch(addr)
            store(addr, value)
        return run_store

    def _decode_malloc(self, op: Operation) -> Closure:
        d = op.dest.vid
        size_of = self._getter(op.srcs[0])
        site = op.attrs["site"]
        obj = f"h:{site}"
        malloc = self.memory.malloc
        heap_sizes = self.profile.heap_sizes

        def run_malloc(regs):
            size = int(size_of(regs))
            regs[d] = malloc(size, site)
            heap_sizes[obj] += max(size, 1)
        return run_malloc

    def _decode_call(self, op: Operation) -> Closure:
        callee = op.attrs["callee"]
        getters = [self._getter(v) for v in op.srcs[1:]]
        convert = _PRINTS.get(callee)
        if convert is not None:
            output = self.profile.output

            def run_print(regs):
                args = [get(regs) for get in getters]
                output.append(convert(args[0]))
            return run_print
        target = self.module.functions.get(callee)
        if callee == "abort" or target is None:
            message = ("program aborted" if callee == "abort"
                       else f"call to unknown function {callee!r}")

            def run_failing(regs):
                for get in getters:
                    get(regs)
                raise InterpreterError(message)
            return run_failing
        d = op.dest.vid if op.dest is not None else None
        call = self._call

        def run_call(regs):
            result = call(target, [get(regs) for get in getters])
            if d is not None:
                regs[d] = result if result is not None else 0
        return run_call


def _slot_reader(kind: str, value) -> Closure:
    """A ``regs -> value`` reader for a :meth:`Interpreter._slot`."""
    if kind == "r":
        return itemgetter(value)
    if kind == "c":
        return lambda regs: value
    return value


def _raiser(error: InterpreterError) -> Closure:
    """A closure that raises (a fresh copy of) ``error`` when run."""
    def fail(regs):
        raise type(error)(*error.args)
    return fail


def _register_named(func: Function, exc: KeyError) -> Optional[VirtualRegister]:
    """The register of ``func`` whose vid a failed register read names."""
    vid = exc.args[0] if exc.args else None
    for op in func.operations():
        for v in op.srcs:
            if isinstance(v, VirtualRegister) and v.vid == vid:
                return v
    return None


#: Builtins that append their one argument to the profile's output.
_PRINTS = {"print_int": int, "print_float": float}


# -- scalar semantics ---------------------------------------------------------------

def _idiv(a, b):
    a, b = int(a), int(b)
    if b == 0:
        raise InterpreterError("integer division by zero")
    q = abs(a) // abs(b)
    return _wrap32(-q if (a < 0) != (b < 0) else q)


def _irem(a, b):
    a, b = int(a), int(b)
    if b == 0:
        raise InterpreterError("integer remainder by zero")
    return _wrap32(a - _idiv(a, b) * b)


def _fdiv(a, b):
    if b == 0.0:
        raise InterpreterError("float division by zero")
    return float(a) / float(b)


_HANDLERS = {
    Opcode.ADD: lambda a, b: _wrap32(int(a) + int(b)),
    Opcode.SUB: lambda a, b: _wrap32(int(a) - int(b)),
    Opcode.MUL: lambda a, b: _wrap32(int(a) * int(b)),
    Opcode.DIV: _idiv,
    Opcode.REM: _irem,
    Opcode.NEG: lambda a: _wrap32(-int(a)),
    Opcode.AND: lambda a, b: _wrap32(int(a) & int(b)),
    Opcode.OR: lambda a, b: _wrap32(int(a) | int(b)),
    Opcode.XOR: lambda a, b: _wrap32(int(a) ^ int(b)),
    Opcode.NOT: lambda a: _wrap32(~int(a)),
    Opcode.SHL: lambda a, b: _wrap32(int(a) << (int(b) & 31)),
    Opcode.SHR: lambda a, b: int(a) >> (int(b) & 31),  # arithmetic shift
    Opcode.CMPEQ: lambda a, b: 1 if a == b else 0,
    Opcode.CMPNE: lambda a, b: 1 if a != b else 0,
    Opcode.CMPLT: lambda a, b: 1 if a < b else 0,
    Opcode.CMPLE: lambda a, b: 1 if a <= b else 0,
    Opcode.CMPGT: lambda a, b: 1 if a > b else 0,
    Opcode.CMPGE: lambda a, b: 1 if a >= b else 0,
    Opcode.SELECT: lambda c, a, b: a if c != 0 else b,
    Opcode.PTRADD: lambda a, b: int(a) + int(b),
    Opcode.FADD: lambda a, b: float(a) + float(b),
    Opcode.FSUB: lambda a, b: float(a) - float(b),
    Opcode.FMUL: lambda a, b: float(a) * float(b),
    Opcode.FDIV: _fdiv,
    Opcode.FNEG: lambda a: -float(a),
    Opcode.FCMPEQ: lambda a, b: 1 if float(a) == float(b) else 0,
    Opcode.FCMPNE: lambda a, b: 1 if float(a) != float(b) else 0,
    Opcode.FCMPLT: lambda a, b: 1 if float(a) < float(b) else 0,
    Opcode.FCMPLE: lambda a, b: 1 if float(a) <= float(b) else 0,
    Opcode.FCMPGT: lambda a, b: 1 if float(a) > float(b) else 0,
    Opcode.FCMPGE: lambda a, b: 1 if float(a) >= float(b) else 0,
    Opcode.ITOF: lambda a: float(int(a)),
    Opcode.FTOI: lambda a: _wrap32(int(a)),
}


def profile_module(
    module: Module, max_steps: int = 50_000_000
) -> ProfileData:
    """Run ``main`` and return the collected profile."""
    interp = Interpreter(module, max_steps=max_steps)
    interp.run()
    return interp.profile
