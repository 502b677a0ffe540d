"""Differential test of the pre-decoded interval transfer.

The shipped analysis decodes every op once into ``(dest vid, env ->
interval)`` and runs the decoded steps.  This file keeps the op-at-a-time
evaluator the decoder replaced (``reference_eval_op`` and
``reference_transfer_op`` below, with the comparison semantics inlined),
and the CBR edge refinement that scanned its block on every call
(``reference_refine_branch_env``).  It checks that both give the same
environments: on every bench, for both the plain ``compile_source``
module and the prepared module, every block's in and out environment,
the environment before every op, and every constant branch condition.
A Hypothesis property checks each opcode family on random interval and
constant operands.
"""

import itertools
from typing import Dict, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import Analyses
from repro.analysis.callgraph import CallGraph
from repro.analysis.cfg import CFG
from repro.analysis.dataflow import interval
from repro.analysis.dataflow.framework import DataflowProblem, solve
from repro.analysis.dataflow.interval import (
    INT32_MAX,
    INT32_MIN,
    Interval,
    eval_value,
)
from repro.bench import all_benchmarks
from repro.ir import (
    Constant, Function, GlobalAddress, IRBuilder, Module, Opcode, Operation,
    VirtualRegister, renumber_ops,
)
from repro.ir.types import FLOAT, INT
from repro.lang import compile_source, ifconvert
from repro.opt import optimize_module

BENCHES = {bench.name: bench.source for bench in all_benchmarks()}

_TOP = Interval.top()

REFERENCE_COMPARES = {
    Opcode.CMPEQ, Opcode.CMPNE, Opcode.CMPLT,
    Opcode.CMPLE, Opcode.CMPGT, Opcode.CMPGE,
}


# -- the reference evaluator ------------------------------------------------------


def reference_compare(code: Opcode, a: Interval, b: Interval) -> Interval:
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


def reference_eval_op(op, env, const_globals=None) -> Optional[Interval]:
    code = op.opcode
    if code in (Opcode.MOV, Opcode.ICMOVE):
        return eval_value(op.srcs[0], env)
    if code is Opcode.LOAD:
        addr = op.srcs[0]
        if (
            const_globals
            and isinstance(addr, GlobalAddress)
            and addr.symbol in const_globals
        ):
            return Interval.const(const_globals[addr.symbol])
        return _TOP
    if code in (Opcode.MALLOC, Opcode.CALL, Opcode.PTRADD):
        return _TOP
    if code is Opcode.SELECT:
        cond = eval_value(op.srcs[0], env)
        if cond.is_const():
            return eval_value(op.srcs[1] if cond.lo != 0 else op.srcs[2], env)
        return eval_value(op.srcs[1], env).join(eval_value(op.srcs[2], env))
    if code in REFERENCE_COMPARES:
        a, b = (eval_value(s, env) for s in op.srcs[:2])
        return reference_compare(code, a, b)
    if code in interval._UNARY:
        return interval._UNARY[code](eval_value(op.srcs[0], env))
    if code in interval._BINARY:
        a, b = (eval_value(s, env) for s in op.srcs[:2])
        return interval._BINARY[code](a, b)
    return _TOP


def reference_transfer_op(op, env, const_globals=None) -> None:
    dest = op.dest
    if dest is None:
        return
    iv = reference_eval_op(op, env, const_globals)
    if iv is None or iv.is_top():
        env.pop(dest.vid, None)
    else:
        env[dest.vid] = iv


# -- a reference whole-module solve over the reference evaluator --------------------


def reference_refine_branch_env(block, taken, env):
    """The CBR edge refinement that scans ``block`` on every call, as it
    was before the decoder found each block's compare once."""
    term = block.ops[-1]
    cond = term.srcs[0]
    out = dict(env)
    if not isinstance(cond, VirtualRegister):
        return out
    civ = out.get(cond.vid, _TOP)
    if taken:
        refined = interval._drop_const(civ, 0)
        if refined is None:
            return None
        if not refined.is_top():
            out[cond.vid] = refined
    else:
        if not civ.contains(0):
            return None
        out[cond.vid] = Interval.const(0)

    cmp_op = None
    for op in block.ops:
        if op.dest is not None and op.dest.vid == cond.vid:
            cmp_op = op
    if cmp_op is None or cmp_op.opcode not in interval._COMPARES:
        return out
    # The refinement equates each operand's end-of-block value with its
    # value at the compare, so bail if anything redefines one in between.
    seen = False
    killed: set = set()
    for op in block.ops:
        if op is cmp_op:
            seen = True
            continue
        if seen and op.dest is not None:
            killed.add(op.dest.vid)
    a_src, b_src = cmp_op.srcs[0], cmp_op.srcs[1]
    for src in (a_src, b_src):
        if isinstance(src, VirtualRegister) and src.vid in killed:
            return out
    code = cmp_op.opcode if taken else interval._NEGATE[cmp_op.opcode]
    refined_pair = interval._refine_compare(
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


class ReferenceProblem(DataflowProblem):
    direction = "forward"

    def __init__(self, entry_env, const_globals):
        super().__init__(interval.EnvLattice())
        self._entry_env = entry_env
        self._const_globals = const_globals

    def boundary(self):
        return dict(self._entry_env)

    def transfer(self, block, state):
        if state is None:
            return None
        env = dict(state)
        for op in block.ops:
            reference_transfer_op(op, env, self._const_globals)
        return env

    def edge_transfer(self, src, dst_name, state):
        term = src.ops[-1] if src.ops else None
        if state is None or term is None or term.opcode is not Opcode.CBR:
            return state
        t_true, t_false = term.targets[0], term.targets[1]
        if t_true == t_false or dst_name not in (t_true, t_false):
            return state
        return reference_refine_branch_env(src, dst_name == t_true, state)


class ReferenceIntervals:
    def __init__(self, module):
        self.module = module
        callgraph = CallGraph(module)
        self.const_globals = interval.never_stored_global_values(module)
        self.cfgs: Dict[str, CFG] = {}
        self.solutions = {}
        recursive = callgraph.recursive()
        arg_envs: Dict[str, Dict[int, Interval]] = {}
        for name in reversed(callgraph.bottom_up_order()):
            if name not in module.functions:
                continue
            func = module.functions[name]
            if name == "main" or name in recursive:
                entry: Dict[int, Interval] = {}
            else:
                entry = arg_envs.get(name, {})
            cfg = CFG(func)
            self.cfgs[name] = cfg
            self.solutions[name] = solve(
                func, cfg, ReferenceProblem(entry, self.const_globals),
                narrow_passes=2,
            )
            self._propagate_call_args(func, cfg, arg_envs)

    def _propagate_call_args(self, func, cfg, arg_envs):
        lattice = interval.EnvLattice()
        solution = self.solutions[func.name]
        for block_name in cfg.reverse_postorder():
            block = func.blocks[block_name]
            state = solution.in_of(block_name)
            if state is None:
                continue
            env = dict(state)
            for op in block.ops:
                if op.is_call():
                    callee = op.attrs.get("callee")
                    target = self.module.functions.get(callee) if callee else None
                    if target is not None:
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
                reference_transfer_op(op, env, self.const_globals)

    def env_before_op(self, func_name, block, target):
        state = self.solutions[func_name].in_of(block.name)
        if state is None:
            return None
        env = dict(state)
        for op in block.ops:
            if op is target:
                break
            reference_transfer_op(op, env, self.const_globals)
        return env

    def constant_conditions(self, func_name):
        func = self.module.functions[func_name]
        for block_name in self.cfgs[func_name].reverse_postorder():
            block = func.blocks[block_name]
            if not block.ops or block.ops[-1].opcode is not Opcode.CBR:
                continue
            term = block.ops[-1]
            env = self.env_before_op(func_name, block, term)
            if env is None:
                continue
            cond = eval_value(term.srcs[0], env)
            if cond.is_const() and cond.lo == 0:
                yield block.name, cond, term.targets[1]
            elif not cond.contains(0):
                yield block.name, cond, term.targets[0]


def modules(name):
    ifconvert._counter = itertools.count()
    yield "plain", compile_source(BENCHES[name], name)
    prepared = compile_source(BENCHES[name], name, unroll_factor=4, if_convert=True)
    optimize_module(prepared)
    renumber_ops(prepared)
    yield "prepared", prepared


def branch_cases():
    """``main(x)`` with one CBR per edge-refinement corner: a compare
    operand redefined before the branch and a condition redefined after
    its compare (no bench has either), ``cmp x, x``, an arithmetic and a
    constant condition, and a CBR whose two targets are one block."""
    x = VirtualRegister(0, INT, "x")
    func = Function("main", [x], INT)
    b = IRBuilder(func)
    b.set_block(b.new_block("entry"))

    def branch(cond, name):
        taken, after = b.new_block(f"{name}_taken"), b.new_block(f"{name}_after")
        b.cbr(cond, taken, after)
        b.set_block(taken)
        b.br(after)
        b.set_block(after)

    t = b.mov(x)
    cond = b.cmp("lt", t, b.const(10))
    b.mov_to(t, b.const(50))
    branch(cond, "killed")
    cond = b.cmp("lt", x, b.const(10))
    b.mov_to(cond, b.const(1))
    branch(cond, "redefined")
    branch(b.cmp("le", x, x), "self")
    branch(b.add(x, b.const(1)), "arith")
    branch(b.const(0), "constant")
    same = b.new_block("same")
    b.cbr(b.cmp("gt", x, b.const(3)), same, same)
    b.set_block(same)
    b.ret(x)
    module = Module("branches")
    module.add_function(func)
    return module


def test_branch_refinement_cases_match_reference():
    module = branch_cases()
    shipped = Analyses(module).intervals().solutions["main"]
    reference = ReferenceIntervals(module).solutions["main"]
    assert shipped.in_states == reference.in_states
    assert shipped.out_states == reference.out_states
    # 50 < 10 would make the edge dead, had the redefinition been missed.
    assert shipped.in_of("killed_taken") is not None


@pytest.mark.parametrize("name", sorted(BENCHES))
def test_decoded_transfer_matches_reference(name):
    for mode, module in modules(name):
        shipped = Analyses(module).intervals()
        reference = ReferenceIntervals(module)
        assert set(shipped.solutions) == set(reference.solutions), mode
        for func in module:
            if func.name not in reference.solutions:
                continue
            ours, theirs = shipped.solutions[func.name], reference.solutions[func.name]
            assert ours.in_states == theirs.in_states, (mode, func.name)
            assert ours.out_states == theirs.out_states, (mode, func.name)
            for block in func:
                for op in block.ops:
                    assert shipped.env_before_op(func.name, block, op) == \
                        reference.env_before_op(func.name, block, op), \
                        (mode, func.name, block.name)
            assert [
                (block.name, cond, taken)
                for block, _, cond, taken in shipped.constant_conditions(func.name)
            ] == list(reference.constant_conditions(func.name)), (mode, func.name)


# -- per-opcode property -----------------------------------------------------------

bounds = st.one_of(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=INT32_MIN, max_value=INT32_MAX),
)
intervals = st.tuples(bounds, bounds).map(lambda p: Interval(min(p), max(p)))
envs = st.dictionaries(st.integers(min_value=0, max_value=3), intervals, max_size=4)
operands = st.one_of(
    st.integers(min_value=0, max_value=3).map(lambda vid: VirtualRegister(vid, INT)),
    st.integers(min_value=-50, max_value=50).map(lambda v: Constant(v, INT)),
    st.integers(min_value=INT32_MIN - 4, max_value=INT32_MAX + 4).map(
        lambda v: Constant(v, INT)),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(
        lambda v: Constant(v, FLOAT)),
    st.booleans().map(lambda v: Constant(v, INT)),
    st.sampled_from(["g", "h"]).map(lambda s: GlobalAddress(s, INT)),
)
opcodes = st.sampled_from(list(Opcode))
const_globals = st.one_of(
    st.none(), st.just({}),
    st.integers(min_value=-100, max_value=100).map(lambda v: {"g": v}),
)


@given(code=opcodes, srcs=st.lists(operands, min_size=3, max_size=3),
       env=envs, globals_map=const_globals, has_dest=st.booleans())
@settings(max_examples=400, deadline=None)
def test_each_opcode_decodes_to_reference(code, srcs, env, globals_map, has_dest):
    op = Operation(code, VirtualRegister(7, INT) if has_dest else None, srcs)
    step = interval.decode_op(op, globals_map)
    if op.dest is None:
        assert step is None
    else:
        vid, evaluate = step
        assert vid == op.dest.vid
        assert evaluate(dict(env)) == reference_eval_op(op, env, globals_map)
    ours, theirs = dict(env), dict(env)
    transfer(op, ours, globals_map)
    reference_transfer_op(op, theirs, globals_map)
    assert ours == theirs


def transfer(op, env, const_globals=None):
    """One op's effect on ``env``, as the block transfer applies it."""
    step = interval.decode_op(op, const_globals)
    if step is not None:
        interval._run_steps((step,), env)


def test_top_results_are_dropped_from_the_env():
    op = Operation(Opcode.ADD, VirtualRegister(0, INT),
                   [VirtualRegister(1, INT), Constant(1, INT)])
    env = {0: Interval(3, 4), 1: Interval(0, INT32_MAX)}
    transfer(op, env)
    assert 0 not in env  # [1, 2**31] escapes the 32-bit range: TOP
