"""Structural verifier for IR modules.

The verifier enforces the invariants every pass may rely on:

* every block ends in exactly one terminator, and terminators appear only
  at block ends;
* branch targets name blocks that exist in the same function;
* every register read is either a parameter or defined by some operation
  in the function (the IR is not SSA, so no dominance requirement);
* operand and destination arity match the opcode;
* calls name functions or known externals, pass the right number of
  arguments, and only capture a result when the callee returns one;
* global references resolve.

:func:`module_errors` / :func:`function_errors` return findings as plain
strings (the :mod:`repro.lint` framework wraps them in diagnostics);
:func:`verify_module` / :func:`verify_function` raise on the first report.
"""

from __future__ import annotations

from typing import List, Optional, Set

from .function import Function
from .module import Module
from .ops import Opcode, Operation
from .types import VoidType
from .values import GlobalAddress

#: Call targets that need not be defined in the module (modelled intrinsics).
KNOWN_EXTERNALS = {"print_int", "print_float", "abort"}

#: Argument count and whether each modelled intrinsic produces a result.
_EXTERNAL_ARITY = {
    "print_int": (1, False),
    "print_float": (1, False),
    "abort": (0, False),
}

assert set(_EXTERNAL_ARITY) == KNOWN_EXTERNALS

#: Opcode arity table: (num_srcs, has_dest, num_targets); None = variable.
_ARITY = {
    Opcode.ADD: (2, True, 0),
    Opcode.SUB: (2, True, 0),
    Opcode.MUL: (2, True, 0),
    Opcode.DIV: (2, True, 0),
    Opcode.REM: (2, True, 0),
    Opcode.NEG: (1, True, 0),
    Opcode.AND: (2, True, 0),
    Opcode.OR: (2, True, 0),
    Opcode.XOR: (2, True, 0),
    Opcode.NOT: (1, True, 0),
    Opcode.SHL: (2, True, 0),
    Opcode.SHR: (2, True, 0),
    Opcode.CMPEQ: (2, True, 0),
    Opcode.CMPNE: (2, True, 0),
    Opcode.CMPLT: (2, True, 0),
    Opcode.CMPLE: (2, True, 0),
    Opcode.CMPGT: (2, True, 0),
    Opcode.CMPGE: (2, True, 0),
    Opcode.SELECT: (3, True, 0),
    Opcode.MOV: (1, True, 0),
    Opcode.PTRADD: (2, True, 0),
    Opcode.FADD: (2, True, 0),
    Opcode.FSUB: (2, True, 0),
    Opcode.FMUL: (2, True, 0),
    Opcode.FDIV: (2, True, 0),
    Opcode.FNEG: (1, True, 0),
    Opcode.FCMPEQ: (2, True, 0),
    Opcode.FCMPNE: (2, True, 0),
    Opcode.FCMPLT: (2, True, 0),
    Opcode.FCMPLE: (2, True, 0),
    Opcode.FCMPGT: (2, True, 0),
    Opcode.FCMPGE: (2, True, 0),
    Opcode.ITOF: (1, True, 0),
    Opcode.FTOI: (1, True, 0),
    Opcode.LOAD: (1, True, 0),
    Opcode.STORE: (2, False, 0),
    Opcode.MALLOC: (1, True, 0),
    Opcode.BR: (0, False, 1),
    Opcode.CBR: (1, False, 2),
    Opcode.RET: (None, False, 0),
    Opcode.CALL: (None, None, 0),
    Opcode.ICMOVE: (1, True, 0),
}


class VerificationError(Exception):
    """Raised when a module violates an IR structural invariant."""

    def __init__(self, errors: List[str]):
        self.errors = errors
        super().__init__("\n".join(errors))


def module_errors(module: Module) -> List[str]:
    """All structural findings for ``module`` as ``func/block: text`` strings."""
    errors: List[str] = []
    for func in module:
        errors.extend(_check_function(module, func))
    for func in module:
        for block in func:
            for op in block.ops:
                where = f"{func.name}/{block.name}"
                for src in op.srcs:
                    if (
                        isinstance(src, GlobalAddress)
                        and src.symbol not in module.globals
                    ):
                        errors.append(
                            f"{where}: reference to undefined global @{src.symbol}"
                        )
                if op.is_call():
                    errors.extend(_check_call_signature(module, where, op))
    return errors


def function_errors(func: Function) -> List[str]:
    """Structural findings for one function (no cross-module checks)."""
    return _check_function(None, func)


def verify_module(module: Module) -> None:
    """Verify the whole module; raise :class:`VerificationError` on failure."""
    errors = module_errors(module)
    if errors:
        raise VerificationError(errors)


def verify_function(func: Function) -> None:
    """Verify one function in isolation (no cross-module checks)."""
    errors = function_errors(func)
    if errors:
        raise VerificationError(errors)


def _check_call_signature(module: Module, where: str, op: Operation) -> List[str]:
    """Callee exists; argument count and result capture match its signature."""
    errors: List[str] = []
    callee = op.attrs.get("callee")
    nargs = max(len(op.srcs) - 1, 0)  # srcs[0] is the FunctionRef

    expected: Optional[int] = None
    returns_value: Optional[bool] = None
    if callee in module.functions:
        target = module.functions[callee]
        expected = len(target.params)
        returns_value = not isinstance(target.return_type, VoidType)
    elif callee in KNOWN_EXTERNALS:
        expected, returns_value = _EXTERNAL_ARITY[callee]
    else:
        errors.append(f"{where}: call to undefined function @{callee}")
        return errors

    if nargs != expected:
        errors.append(
            f"{where}: call to @{callee} passes {nargs} argument(s), "
            f"expected {expected}"
        )
    if op.dest is not None and not returns_value:
        errors.append(
            f"{where}: call to @{callee} captures a result, but the "
            "callee returns void"
        )
    return errors


def _check_function(module, func: Function) -> List[str]:
    errors: List[str] = []
    if not func.blocks:
        errors.append(f"{func.name}: function has no blocks")
        return errors

    defined: Set[int] = {p.vid for p in func.params}
    for op in func.operations():
        if op.dest is not None:
            defined.add(op.dest.vid)

    for block in func:
        if not block.ops:
            errors.append(f"{func.name}/{block.name}: empty block")
            continue
        if block.terminator is None:
            errors.append(f"{func.name}/{block.name}: missing terminator")
        for i, op in enumerate(block.ops):
            if op.is_terminator() and i != len(block.ops) - 1:
                errors.append(
                    f"{func.name}/{block.name}: terminator {op.opcode.mnemonic} "
                    f"at position {i} is not last"
                )
            errors.extend(_check_op(func, block.name, op, defined))
        for target in block.successors():
            if target not in func.blocks:
                errors.append(
                    f"{func.name}/{block.name}: branch to unknown block {target!r}"
                )
    return errors


def _check_op(func: Function, bname: str, op: Operation, defined: Set[int]) -> List[str]:
    errors: List[str] = []
    where = f"{func.name}/{bname}"
    arity = _ARITY.get(op.opcode)
    if arity is None:
        errors.append(f"{where}: unknown opcode {op.opcode}")
        return errors
    nsrcs, has_dest, ntargets = arity
    if nsrcs is not None and len(op.srcs) != nsrcs:
        if not (op.opcode is Opcode.RET and len(op.srcs) in (0, 1)):
            errors.append(
                f"{where}: {op.opcode.mnemonic} expects {nsrcs} srcs, "
                f"got {len(op.srcs)}"
            )
    if op.opcode is Opcode.RET and len(op.srcs) > 1:
        errors.append(f"{where}: ret takes at most one value")
    if has_dest is True and op.dest is None:
        errors.append(f"{where}: {op.opcode.mnemonic} requires a destination")
    if has_dest is False and op.dest is not None:
        errors.append(f"{where}: {op.opcode.mnemonic} must not have a destination")
    if len(op.targets) != ntargets:
        errors.append(
            f"{where}: {op.opcode.mnemonic} expects {ntargets} targets, "
            f"got {len(op.targets)}"
        )
    for src in op.register_srcs():
        if src.vid not in defined:
            errors.append(
                f"{where}: use of undefined register {src} in {op.opcode.mnemonic}"
            )
    if op.opcode is Opcode.MALLOC and "site" not in op.attrs:
        errors.append(f"{where}: malloc without allocation-site id")
    if op.is_call() and "callee" not in op.attrs:
        errors.append(f"{where}: call without callee attribute")
    return errors
