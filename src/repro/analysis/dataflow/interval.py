"""Interval value-range analysis over MiniC IR.

Abstract interpretation with the classic interval domain, clipped to the
interpreter's 32-bit integer semantics: every interval is a subrange of
``[INT32_MIN, INT32_MAX]`` and any arithmetic whose true result could
escape that range goes to TOP — the sound model of the interpreter's
``_wrap32``.  There is no bottom *interval*; unreachability lives one
level up, in the per-block environment lattice whose bottom is ``None``.

Environments map virtual-register ids to intervals; an absent key means
TOP (unknown 32-bit value), so environments stay small and joins only
keep registers both sides know something about.

Interprocedural lifting walks the call graph top-down: a callee's entry
environment is the join of its call-site argument intervals; recursive
functions and functions unreachable from ``main`` get TOP parameters.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Optional, Tuple

from .framework import DataflowProblem, DataflowSolution, Lattice, solve
from ..cfg import CFG
from ...ir import (
    BasicBlock,
    Constant,
    Function,
    GlobalAddress,
    IntType,
    Module,
    Opcode,
    Operation,
    Value,
    VirtualRegister,
)

if TYPE_CHECKING:
    from ..memo import Analyses

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1

#: Descending sweeps after the ascending fixpoint (narrowing recovers
#: bounds widening threw away, e.g. loop-exit compares).
NARROW_PASSES = 2


class Interval:
    """A non-empty subrange of the 32-bit signed integers."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo if lo > INT32_MIN else INT32_MIN
        self.hi = hi if hi < INT32_MAX else INT32_MAX

    # -- constructors --------------------------------------------------------

    @staticmethod
    def top() -> "Interval":
        return _TOP

    @staticmethod
    def const(value: int) -> "Interval":
        if INT32_MIN <= value <= INT32_MAX:
            return Interval(value, value)
        return _TOP

    @staticmethod
    def from_bounds(lo: int, hi: int) -> "Interval":
        """Escape-to-TOP constructor: a true result range that leaves the
        32-bit space may wrap anywhere, so the only sound answer is TOP."""
        if lo < INT32_MIN or hi > INT32_MAX:
            return _TOP
        return Interval(lo, hi)

    # -- queries -------------------------------------------------------------

    def is_top(self) -> bool:
        return self.lo == INT32_MIN and self.hi == INT32_MAX

    def is_const(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def width(self) -> int:
        return self.hi - self.lo + 1

    # -- lattice operators ---------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def widen(self, new: "Interval") -> "Interval":
        lo = self.lo if new.lo >= self.lo else INT32_MIN
        hi = self.hi if new.hi <= self.hi else INT32_MAX
        return Interval(lo, hi)

    def narrow(self, new: "Interval") -> "Interval":
        """Refine only the endpoints widening blew out (standard interval
        narrowing, sound within a descending iteration)."""
        lo = new.lo if self.lo == INT32_MIN else self.lo
        hi = new.hi if self.hi == INT32_MAX else self.hi
        return Interval(lo, hi) if lo <= hi else self

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Interval)
            and other.lo == self.lo
            and other.hi == self.hi
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __str__(self) -> str:
        if self.is_top():
            return "[-inf, +inf]"
        return f"[{self.lo}, {self.hi}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interval({self.lo}, {self.hi})"


_TOP = Interval(INT32_MIN, INT32_MAX)

#: vid -> interval; absent key means TOP.  ``None`` is the env-lattice bottom.
Env = Optional[Dict[int, Interval]]


class EnvLattice(Lattice):
    """Pointwise lift of :class:`Interval` over register environments."""

    def bottom(self) -> Env:
        return None

    def join(self, a: Env, b: Env) -> Env:
        if a is None:
            return b if b is None else dict(b)
        if b is None:
            return dict(a)
        out: Dict[int, Interval] = {}
        for vid, iv in a.items():
            other = b.get(vid)
            if other is None:
                continue  # absent means TOP; the join is TOP -> drop
            joined = iv.join(other)
            if not joined.is_top():
                out[vid] = joined
        return out

    def widen(self, old: Env, new: Env) -> Env:
        if old is None or new is None:
            return self.join(old, new)
        out: Dict[int, Interval] = {}
        for vid, iv in old.items():
            other = new.get(vid)
            if other is None:
                continue
            widened = iv.widen(other)
            if not widened.is_top():
                out[vid] = widened
        return out

    def narrow(self, old: Env, new: Env) -> Env:
        if old is None or new is None:
            return old
        out: Dict[int, Interval] = {}
        for vid, niv in new.items():
            narrowed = old.get(vid, _TOP).narrow(niv)
            if not narrowed.is_top():
                out[vid] = narrowed
        for vid, oiv in old.items():
            if vid not in new and not oiv.is_top():
                out[vid] = oiv
        return out


def eval_value(value: Value, env: Dict[int, Interval]) -> Interval:
    """The interval of one operand under ``env`` (TOP for anything that is
    not a 32-bit integer: floats, global addresses, function refs)."""
    if isinstance(value, Constant):
        if isinstance(value.value, bool) or not isinstance(value.value, int):
            return _TOP
        return Interval.const(value.value)
    if isinstance(value, VirtualRegister):
        return env.get(value.vid, _TOP)
    return _TOP


def _div_trunc(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _combos(f, a: Interval, b: Interval) -> Interval:
    cands = [f(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return Interval.from_bounds(min(cands), max(cands))


def never_stored_global_values(module: Module, pointsto=None) -> Dict[str, int]:
    """Scalar int globals no STORE in the module may touch, with their
    initial (and therefore only) value.

    Store targets come from ``pointsto`` (a solved result) or the ops'
    ``mem_objects`` annotations; a store with an *empty* target set lost
    its address entirely, so the safe answer is then "no constant
    globals at all".
    """
    stored: set = set()
    for func in module:
        for op in func.operations():
            if op.opcode is not Opcode.STORE:
                continue
            if pointsto is not None:
                objs = pointsto.objects_for_op(func.name, op)
            else:
                objs = op.mem_objects()
            if not objs:
                return {}
            stored.update(objs)
    values: Dict[str, int] = {}
    for name, gvar in module.globals.items():
        if f"g:{name}" in stored or not isinstance(gvar.ty, IntType):
            continue
        init = gvar.initializer
        if init is None:
            values[name] = 0
        elif isinstance(init, int) and not isinstance(init, bool):
            wrapped = init & 0xFFFFFFFF
            values[name] = (
                wrapped - 0x100000000 if wrapped >= 0x80000000 else wrapped
            )
    return values


def _compare(code: Opcode, a: Interval, b: Interval) -> Interval:
    # Provably-true / provably-false outcomes collapse to a constant;
    # everything else is the boolean range [0, 1].
    if code is Opcode.CMPEQ:
        if a.is_const() and b.is_const():
            return Interval.const(1 if a.lo == b.lo else 0)
        if a.intersect(b) is None:
            return Interval.const(0)
    elif code is Opcode.CMPNE:
        if a.is_const() and b.is_const():
            return Interval.const(0 if a.lo == b.lo else 1)
        if a.intersect(b) is None:
            return Interval.const(1)
    elif code is Opcode.CMPLT:
        if a.hi < b.lo:
            return Interval.const(1)
        if a.lo >= b.hi:
            return Interval.const(0)
    elif code is Opcode.CMPLE:
        if a.hi <= b.lo:
            return Interval.const(1)
        if a.lo > b.hi:
            return Interval.const(0)
    elif code is Opcode.CMPGT:
        if a.lo > b.hi:
            return Interval.const(1)
        if a.hi <= b.lo:
            return Interval.const(0)
    elif code is Opcode.CMPGE:
        if a.lo >= b.hi:
            return Interval.const(1)
        if a.hi < b.lo:
            return Interval.const(0)
    return Interval(0, 1)


def _div(a: Interval, b: Interval) -> Interval:
    if b.contains(0):
        return _TOP
    return _combos(_div_trunc, a, b)


def _rem(a: Interval, b: Interval) -> Interval:
    if b.contains(0):
        return _TOP
    # C-style remainder: |r| < max|b| and sign(r) follows sign(a);
    # for a wholly non-negative dividend the result also never exceeds it.
    max_b = max(abs(b.lo), abs(b.hi))
    lo = -(max_b - 1) if a.lo < 0 else 0
    hi = (max_b - 1) if a.hi > 0 else 0
    if a.lo >= 0:
        hi = min(hi, a.hi)
    return Interval.from_bounds(lo, hi)


def _bitand(a: Interval, b: Interval) -> Interval:
    if a.is_const() and b.is_const():
        return Interval.const(a.lo & b.lo)
    if a.lo >= 0 and b.lo >= 0:
        return Interval(0, min(a.hi, b.hi))
    if a.lo >= 0:
        return Interval(0, a.hi)
    if b.lo >= 0:
        return Interval(0, b.hi)
    return _TOP


def _bitor_bound(a: Interval, b: Interval) -> Interval:
    if a.lo >= 0 and b.lo >= 0:
        bits = max(a.hi.bit_length(), b.hi.bit_length())
        return Interval.from_bounds(0, (1 << bits) - 1)
    return _TOP


def _bitor(a: Interval, b: Interval) -> Interval:
    if a.is_const() and b.is_const():
        return Interval.const(a.lo | b.lo)
    return _bitor_bound(a, b)


def _bitxor(a: Interval, b: Interval) -> Interval:
    if a.is_const() and b.is_const():
        return Interval.const(a.lo ^ b.lo)
    return _bitor_bound(a, b)


def _shl(a: Interval, b: Interval) -> Interval:
    # The interpreter masks the shift amount with & 31; outside [0, 31]
    # that produces surprising values, so only model in-range shifts.
    if b.lo < 0 or b.hi > 31:
        return _TOP
    return _combos(lambda x, s: x << s, a, b)


def _shr(a: Interval, b: Interval) -> Interval:
    if b.lo < 0 or b.hi > 31:
        return _TOP
    return _combos(lambda x, s: x >> s, a, b)


#: Comparison opcodes (also the ones eligible for branch refinement).
_COMPARES = {
    Opcode.CMPEQ,
    Opcode.CMPNE,
    Opcode.CMPLT,
    Opcode.CMPLE,
    Opcode.CMPGT,
    Opcode.CMPGE,
}

_UNARY = {
    Opcode.NEG: lambda a: Interval.from_bounds(-a.hi, -a.lo),
    Opcode.NOT: lambda a: Interval.from_bounds(-a.hi - 1, -a.lo - 1),
}

_BINARY = {
    Opcode.ADD: lambda a, b: Interval.from_bounds(a.lo + b.lo, a.hi + b.hi),
    Opcode.SUB: lambda a, b: Interval.from_bounds(a.lo - b.hi, a.hi - b.lo),
    Opcode.MUL: lambda a, b: _combos(lambda x, y: x * y, a, b),
    Opcode.DIV: _div,
    Opcode.REM: _rem,
    Opcode.AND: _bitand,
    Opcode.OR: _bitor,
    Opcode.XOR: _bitxor,
    Opcode.SHL: _shl,
    Opcode.SHR: _shr,
}


# -- decoded transfer -----------------------------------------------------------

#: Interval of an operation's result as a function of the environment.
Evaluator = Callable[[Dict[int, Interval]], Interval]

#: One decoded operation: destination register id and its evaluator.
Step = Tuple[int, Evaluator]

#: What the refinement of a block's CBR edges reads: the taken and the
#: fallthrough target, the condition's register id (``None`` for a
#: constant condition) and the compare that defines it (``None`` when
#: the refinement cannot use one).
Branch = Tuple[str, str, Optional[int], Optional[Operation]]

#: One decoded block: the steps of its register-defining ops, in order,
#: each call with the number of steps that run before it, and its branch
#: (``None`` when its out edges are not refined).
DecodedBlock = Tuple[
    Tuple[Step, ...], Tuple[Tuple[int, Operation], ...], Optional[Branch]
]


def _constant(iv: Interval) -> Evaluator:
    return lambda env: iv


_top = _constant(_TOP)


def _reader(value: Value) -> Evaluator:
    """:func:`eval_value` of one operand, its kind resolved up front."""
    if isinstance(value, VirtualRegister):
        vid = value.vid
        return lambda env: env.get(vid, _TOP)
    return _constant(eval_value(value, {}))


def _binary(f: Callable[[Interval, Interval], Interval],
            a: Value, b: Value) -> Evaluator:
    if isinstance(a, VirtualRegister):
        x = a.vid
        if isinstance(b, VirtualRegister):
            y = b.vid
            return lambda env: f(env.get(x, _TOP), env.get(y, _TOP))
        b_iv = eval_value(b, {})
        return lambda env: f(env.get(x, _TOP), b_iv)
    a_iv = eval_value(a, {})
    read_b = _reader(b)
    return lambda env: f(a_iv, read_b(env))


def _evaluator(
    op: Operation, const_globals: Optional[Dict[str, int]]
) -> Evaluator:
    code = op.opcode
    srcs = op.srcs
    if code in (Opcode.MOV, Opcode.ICMOVE):
        return _reader(srcs[0])
    if code is Opcode.LOAD:
        addr = srcs[0]
        if (
            const_globals
            and isinstance(addr, GlobalAddress)
            and addr.symbol in const_globals
        ):
            return _constant(Interval.const(const_globals[addr.symbol]))
        return _top
    if code in (Opcode.MALLOC, Opcode.CALL, Opcode.PTRADD):
        return _top
    if code is Opcode.SELECT:
        cond, if_true, if_false = (_reader(s) for s in srcs[:3])

        def select(env: Dict[int, Interval]) -> Interval:
            c = cond(env)
            if c.is_const():
                return (if_true if c.lo != 0 else if_false)(env)
            return if_true(env).join(if_false(env))

        return select
    if code in _UNARY:
        f, read = _UNARY[code], _reader(srcs[0])
        return lambda env: f(read(env))
    if code in _COMPARES:
        return _binary(partial(_compare, code), srcs[0], srcs[1])
    if code in _BINARY:
        return _binary(_BINARY[code], srcs[0], srcs[1])
    return _top  # floats and anything unmodelled


def decode_op(
    op: Operation, const_globals: Optional[Dict[str, int]] = None
) -> Optional[Step]:
    """``(dest vid, evaluator)`` for an op that defines a register, with
    opcode dispatch and operand kinds resolved once; ``None`` for one
    that leaves the environment untouched (STORE, branches, void calls).
    An op without register operands is evaluated here, once."""
    if op.dest is None:
        return None
    evaluate = _evaluator(op, const_globals)
    if not any(isinstance(s, VirtualRegister) for s in op.srcs):
        evaluate = _constant(evaluate({}))
    return op.dest.vid, evaluate


def _decode_block(
    block: BasicBlock, const_globals: Optional[Dict[str, int]] = None
) -> DecodedBlock:
    steps = []
    calls = []
    for op in block.ops:
        if op.is_call():
            calls.append((len(steps), op))
        step = decode_op(op, const_globals)
        if step is not None:
            steps.append(step)
    return tuple(steps), tuple(calls), _decode_branch(block)


def _run_steps(steps: Iterable[Step], env: Dict[int, Interval]) -> None:
    """Apply decoded steps to ``env`` in place (TOP entries are dropped)."""
    for vid, evaluate in steps:
        iv = evaluate(env)
        if iv.is_top():
            env.pop(vid, None)
        else:
            env[vid] = iv


#: The comparison that holds on the *false* edge of each comparison.
_NEGATE = {
    Opcode.CMPEQ: Opcode.CMPNE,
    Opcode.CMPNE: Opcode.CMPEQ,
    Opcode.CMPLT: Opcode.CMPGE,
    Opcode.CMPLE: Opcode.CMPGT,
    Opcode.CMPGT: Opcode.CMPLE,
    Opcode.CMPGE: Opcode.CMPLT,
}


def _clip(iv: Interval, lo: Optional[int], hi: Optional[int]) -> Optional[Interval]:
    new_lo = iv.lo if lo is None else max(iv.lo, lo)
    new_hi = iv.hi if hi is None else min(iv.hi, hi)
    if new_lo > new_hi:
        return None
    return Interval(new_lo, new_hi)


def _drop_const(iv: Interval, value: int) -> Optional[Interval]:
    """``iv`` minus one excluded value, when an endpoint can express it."""
    if iv.is_const():
        return None if iv.lo == value else iv
    if iv.lo == value:
        return Interval(iv.lo + 1, iv.hi)
    if iv.hi == value:
        return Interval(iv.lo, iv.hi - 1)
    return iv


def _refine_compare(
    code: Opcode, a: Interval, b: Interval
) -> Optional[Tuple[Interval, Interval]]:
    """Sharpen ``(a, b)`` under the assumption ``a <code> b`` holds;
    ``None`` when the assumption is contradictory (the edge is dead)."""
    if code is Opcode.CMPLT:
        na, nb = _clip(a, None, b.hi - 1), _clip(b, a.lo + 1, None)
    elif code is Opcode.CMPLE:
        na, nb = _clip(a, None, b.hi), _clip(b, a.lo, None)
    elif code is Opcode.CMPGT:
        na, nb = _clip(a, b.lo + 1, None), _clip(b, None, a.hi - 1)
    elif code is Opcode.CMPGE:
        na, nb = _clip(a, b.lo, None), _clip(b, None, a.hi)
    elif code is Opcode.CMPEQ:
        na = nb = a.intersect(b)
    elif code is Opcode.CMPNE:
        na = _drop_const(a, b.lo) if b.is_const() else a
        nb = _drop_const(b, a.lo) if a.is_const() else b
    else:  # pragma: no cover - guarded by _COMPARES
        return a, b
    if na is None or nb is None:
        return None
    return na, nb


def _decode_branch(block: BasicBlock) -> Optional[Branch]:
    """The :data:`Branch` of a block ending in a two-way CBR, found once
    per block instead of on every edge evaluation."""
    if not block.ops or block.ops[-1].opcode is not Opcode.CBR:
        return None
    term = block.ops[-1]
    t_true, t_false = term.targets[0], term.targets[1]
    if t_true == t_false:
        return None
    cond = term.srcs[0]
    if not isinstance(cond, VirtualRegister):
        return t_true, t_false, None, None
    at = None
    for index, op in enumerate(block.ops):
        if op.dest is not None and op.dest.vid == cond.vid:
            at = index
    if at is None or block.ops[at].opcode not in _COMPARES:
        return t_true, t_false, cond.vid, None
    cmp_op = block.ops[at]
    # The refinement equates each operand's end-of-block value with its
    # value at the compare, so it does not apply if anything redefines
    # one in between.
    killed = {op.dest.vid for op in block.ops[at + 1:] if op.dest is not None}
    for src in cmp_op.srcs[:2]:
        if isinstance(src, VirtualRegister) and src.vid in killed:
            return t_true, t_false, cond.vid, None
    return t_true, t_false, cond.vid, cmp_op


def refine_branch_env(
    cond: Optional[int],
    cmp_op: Optional[Operation],
    taken: bool,
    env: Dict[int, Interval],
) -> Env:
    """The environment on one CBR edge whose condition is register
    ``cond`` (``None`` for a constant), defined by ``cmp_op`` as in
    :data:`Branch`: the condition is non-zero on the taken edge and zero
    on the fallthrough.  Returns ``None`` (lattice bottom) when the edge
    is infeasible."""
    out = dict(env)
    if cond is None:
        return out
    civ = out.get(cond, _TOP)
    if taken:
        refined = _drop_const(civ, 0)
        if refined is None:
            return None
        if not refined.is_top():
            out[cond] = refined
    else:
        if not civ.contains(0):
            return None
        out[cond] = Interval.const(0)

    if cmp_op is None:
        return out
    a_src, b_src = cmp_op.srcs[0], cmp_op.srcs[1]
    code = cmp_op.opcode if taken else _NEGATE[cmp_op.opcode]
    refined_pair = _refine_compare(
        code, eval_value(a_src, out), eval_value(b_src, out)
    )
    if refined_pair is None:
        return None
    for src, iv in zip((a_src, b_src), refined_pair):
        if not isinstance(src, VirtualRegister):
            continue
        if isinstance(a_src, VirtualRegister) and isinstance(
            b_src, VirtualRegister
        ) and a_src.vid == b_src.vid:
            continue  # cmp x, x: the pairwise refinement does not apply
        if iv.is_top():
            out.pop(src.vid, None)
        else:
            out[src.vid] = iv
    return out


class _IntervalProblem(DataflowProblem):
    direction = "forward"

    def __init__(
        self,
        entry_env: Dict[int, Interval],
        decoded: Dict[str, DecodedBlock],
    ):
        super().__init__(EnvLattice())
        self._entry_env = entry_env
        self._decoded = decoded

    def boundary(self) -> Env:
        return dict(self._entry_env)

    def transfer(self, block: BasicBlock, state: Env) -> Env:
        if state is None:
            return None
        env = dict(state)
        _run_steps(self._decoded[block.name][0], env)
        return env

    def edge_transfer(self, src: BasicBlock, dst_name: str, state: Env) -> Env:
        branch = self._decoded[src.name][2]
        if state is None or branch is None:
            return state
        t_true, t_false, cond, cmp_op = branch
        if dst_name == t_true:
            return refine_branch_env(cond, cmp_op, True, state)
        if dst_name == t_false:
            return refine_branch_env(cond, cmp_op, False, state)
        return state


class IntervalAnalysis:
    """Whole-module interval analysis with top-down parameter lifting.

    Solves every function once, callers before callees, so that each
    call site's argument intervals can seed the callee's parameter
    environment.  Recursive functions (and functions unreachable from
    ``main``) get TOP parameters, which is always sound.  The call graph
    and CFGs come from ``analyses``, the module's
    :class:`~repro.analysis.memo.Analyses` memo, which keys each solve by
    ``const_globals`` (:func:`never_stored_global_values`).
    """

    def __init__(self, analyses: "Analyses", const_globals: Dict[str, int]):
        self.module = analyses.module
        self.const_globals = const_globals
        self.solutions: Dict[str, DataflowSolution] = {}
        #: function -> block name -> the block decoded under ``const_globals``
        self._decoded: Dict[str, Dict[str, DecodedBlock]] = {}
        self._solve_module(analyses)

    # -- solving -------------------------------------------------------------

    def _solve_module(self, analyses: "Analyses") -> None:
        callgraph = analyses.callgraph()
        recursive = callgraph.recursive()
        order = [
            name
            for name in reversed(callgraph.bottom_up_order())
            if name in self.module.functions
        ]
        # Entry envs accumulate as callers get solved; missing/recursive
        # functions fall back to TOP parameters (the empty env).
        arg_envs: Dict[str, Dict[int, Interval]] = {}
        for name in order:
            func = self.module.functions[name]
            if name == "main" or name in recursive:
                entry: Dict[int, Interval] = {}
            else:
                entry = arg_envs.get(name, {})
            cfg = analyses.cfg(func)
            decoded = {
                block.name: _decode_block(block, self.const_globals)
                for block in func
            }
            self._decoded[name] = decoded
            self.solutions[name] = solve(
                func,
                cfg,
                _IntervalProblem(entry, decoded),
                narrow_passes=NARROW_PASSES,
            )
            self._propagate_call_args(func, cfg, arg_envs)

    def _propagate_call_args(
        self,
        func: Function,
        cfg: CFG,
        arg_envs: Dict[str, Dict[int, Interval]],
    ) -> None:
        lattice = EnvLattice()
        solution = self.solutions[func.name]
        decoded = self._decoded[func.name]
        for block_name in cfg.reverse_postorder():
            steps, calls, _branch = decoded[block_name]
            if not calls:
                continue
            state = solution.in_of(block_name)
            if state is None:
                continue
            env = dict(state)
            done = 0
            for before, op in calls:
                callee = op.attrs.get("callee")
                target = self.module.functions.get(callee) if callee else None
                if target is None:
                    continue
                _run_steps(steps[done:before], env)
                done = before
                call_env = {
                    param.vid: iv
                    for param, src in zip(target.params, op.srcs[1:])
                    if not (iv := eval_value(src, env)).is_top()
                }
                if callee in arg_envs:
                    joined = lattice.join(arg_envs[callee], call_env)
                    arg_envs[callee] = joined if joined is not None else {}
                else:
                    arg_envs[callee] = call_env

    # -- queries -------------------------------------------------------------

    def env_at_entry(
        self, func_name: str, block_name: str
    ) -> Optional[Dict[int, Interval]]:
        """Register intervals at block entry; ``None`` if unreachable."""
        solution = self.solutions.get(func_name)
        if solution is None:
            return None
        return solution.in_of(block_name)

    def env_at_exit(
        self, func_name: str, block_name: str
    ) -> Optional[Dict[int, Interval]]:
        solution = self.solutions.get(func_name)
        if solution is None:
            return None
        return solution.out_of(block_name)

    def env_before_op(
        self, func_name: str, block: BasicBlock, target: Operation
    ) -> Optional[Dict[int, Interval]]:
        """Replay the block up to (excluding) ``target``; ``None`` if the
        block is unreachable."""
        state = self.env_at_entry(func_name, block.name)
        if state is None:
            return None
        count = 0
        for op in block.ops:
            if op is target:
                break
            if op.dest is not None:
                count += 1
        env = dict(state)
        _run_steps(self._decoded[func_name][block.name][0][:count], env)
        return env

    def branch_condition(
        self, func_name: str, block: BasicBlock
    ) -> Optional[Tuple[Operation, Interval]]:
        """The terminating CBR and its condition interval, if the block is
        reachable and conditionally branches."""
        if not block.ops:
            return None
        term = block.ops[-1]
        if term.opcode is not Opcode.CBR:
            return None
        env = self.env_before_op(func_name, block, term)
        if env is None:
            return None
        return term, eval_value(term.srcs[0], env)

    def constant_conditions(
        self, func_name: str
    ) -> Iterable[Tuple[BasicBlock, Operation, Interval, str]]:
        """Yield ``(block, cbr, interval, taken_target)`` for every
        reachable CBR whose outcome the analysis proves constant."""
        func = self.module.functions.get(func_name)
        solution = self.solutions.get(func_name)
        if func is None or solution is None:
            return
        for block_name in solution.in_states:  # reverse postorder
            block = func.blocks[block_name]
            found = self.branch_condition(func_name, block)
            if found is None:
                continue
            term, cond = found
            if cond.is_const() and cond.lo == 0:
                yield block, term, cond, term.targets[1]
            elif not cond.contains(0):
                yield block, term, cond, term.targets[0]


__all__ = [
    "INT32_MAX",
    "INT32_MIN",
    "EnvLattice",
    "Interval",
    "IntervalAnalysis",
    "decode_op",
    "eval_value",
    "never_stored_global_values",
]
