"""Differential test of the frontend and optimizer rewrites: every bench,
compiled and optimized with reference implementations (``copy.deepcopy``
for AST copies, CSE and copy propagation that rescan their whole table
on each redefinition, a DCE that rebuilds the CFG and re-solves liveness
on every turn of its fixpoint) and with the shipped ones, serializes to
the same bytes and reports the same number of rewrites."""

import copy
import itertools
from typing import Dict, List, Optional, Set, Tuple

import pytest

from repro.analysis.cfg import CFG
from repro.analysis.liveness import Liveness
from repro.bench import all_benchmarks
from repro.ir import Opcode, VirtualRegister
from repro.ir.serialize import dumps
from repro.lang import ast, compile_source, ifconvert, parse
from repro.opt import cleanup, optimize_module

BENCHES = [bench.name for bench in all_benchmarks()]
SOURCES = {bench.name: bench.source for bench in all_benchmarks()}


def reference_propagate_copies(func) -> int:
    changed = 0
    for block in func:
        copy_of: Dict[int, VirtualRegister] = {}
        for op in block.ops:
            for i, src in enumerate(list(op.srcs)):
                if isinstance(src, VirtualRegister) and src.vid in copy_of:
                    op.srcs[i] = copy_of[src.vid]
                    changed += 1
            if op.dest is None:
                continue
            dead = [
                vid
                for vid, source in copy_of.items()
                if vid == op.dest.vid or source.vid == op.dest.vid
            ]
            for vid in dead:
                del copy_of[vid]
            if (
                op.opcode is Opcode.MOV
                and isinstance(op.srcs[0], VirtualRegister)
                and op.srcs[0].vid != op.dest.vid
            ):
                copy_of[op.dest.vid] = op.srcs[0]
    return changed


def reference_eliminate_common_subexpressions(func) -> int:
    changed = 0
    for block in func:
        versions: Dict[int, int] = {}
        available: Dict[Tuple, VirtualRegister] = {}
        for op in block.ops:
            key: Optional[Tuple] = None
            if op.opcode in cleanup._CSE_OPCODES and op.dest is not None:
                key = (
                    op.opcode.name,
                    tuple(cleanup._value_key(s, versions) for s in op.srcs),
                )
                prior = available.get(key)
                if prior is not None:
                    op.opcode = Opcode.MOV
                    op.srcs = [prior]
                    changed += 1
                    key = None
            if op.dest is not None:
                vid = op.dest.vid
                versions[vid] = versions.get(vid, 0) + 1
                available = {
                    k: reg for k, reg in available.items() if reg.vid != vid
                }
                if key is not None:
                    available[key] = op.dest
    return changed


def reference_eliminate_dead_code(func, cfg=None) -> int:
    removed_total = 0
    while True:
        live = Liveness(func, CFG(func))
        removed = 0
        for block in func:
            live_now: Set[int] = set(live.live_out_of(block.name))
            keep: List = []
            for op in reversed(block.ops):
                if (
                    op.dest is not None
                    and op.dest.vid not in live_now
                    and op.opcode not in cleanup._SIDE_EFFECTS
                ):
                    removed += 1
                    continue
                keep.append(op)
                if op.dest is not None:
                    live_now.discard(op.dest.vid)
                for src in op.register_srcs():
                    live_now.add(src.vid)
            keep.reverse()
            block.ops = keep
        removed_total += removed
        if removed == 0:
            return removed_total


def compiled_text(name: str) -> Tuple[int, str]:
    module = compile_source(SOURCES[name], name, unroll_factor=4, if_convert=True)
    rewrites = optimize_module(module)
    return rewrites, dumps(module)


@pytest.mark.parametrize("name", BENCHES)
def test_rewrite_matches_reference(name, monkeypatch):
    # If-conversion names its temporaries from a process-wide counter;
    # restart it so both compiles pick the same names.
    monkeypatch.setattr(ifconvert, "_counter", itertools.count())
    shipped = compiled_text(name)

    monkeypatch.setattr(ifconvert, "_counter", itertools.count())
    monkeypatch.setattr(ast, "clone", copy.deepcopy)
    monkeypatch.setattr(cleanup, "propagate_copies", reference_propagate_copies)
    monkeypatch.setattr(
        cleanup, "eliminate_common_subexpressions",
        reference_eliminate_common_subexpressions,
    )
    monkeypatch.setattr(
        cleanup, "eliminate_dead_code", reference_eliminate_dead_code)
    assert compiled_text(name) == shipped


def _shared_structure(node, out):
    """Ids of every Node and list reachable from ``node``."""
    if isinstance(node, ast.Node):
        out.add(id(node))
        for value in vars(node).values():
            _shared_structure(value, out)
    elif isinstance(node, (list, tuple)):
        if isinstance(node, list):
            out.add(id(node))
        for item in node:
            _shared_structure(item, out)
    return out


def _shape(node):
    if isinstance(node, ast.Node):
        return (type(node).__name__,) + tuple(
            (key, _shape(value)) for key, value in sorted(vars(node).items())
        )
    if isinstance(node, (list, tuple)):
        return (type(node).__name__,) + tuple(_shape(item) for item in node)
    return node


@pytest.mark.parametrize("name", BENCHES)
def test_clone_shares_no_node_or_list(name):
    program = parse(SOURCES[name])
    copied = ast.clone(program)
    assert type(copied) is ast.Program
    assert not _shared_structure(program, set()) & _shared_structure(copied, set())
    assert _shape(copied) == _shape(program)
    assert copied.decls[0].loc is program.decls[0].loc  # locations are shared
