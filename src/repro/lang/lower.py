"""Lowering: typed MiniC AST -> repro IR.

Locals and parameters live in virtual registers (assignment overwrites the
register — the IR is not SSA); globals, struct fields, array elements and
heap storage are reached through explicit address arithmetic (``PTRADD``)
and ``LOAD``/``STORE``.  Control flow lowers to a conventional CFG; ``&&``,
``||`` and ``?:`` lower to short-circuit diamonds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir import (
    Constant,
    Function,
    GlobalAddress,
    IRBuilder,
    Module,
    Opcode,
    Operation,
    VirtualRegister,
)
from ..ir.types import (
    FLOAT,
    INT,
    VOID,
    ArrayType,
    IRType,
    PointerType,
)
from . import ast
from .errors import TypeCheckError
from .sema import Checker, Symbol, check
from .parser import parse


class _LoopContext:
    """Branch targets for break/continue inside the innermost loop."""

    def __init__(self, break_block, continue_block):
        self.break_block = break_block
        self.continue_block = continue_block


class Lowerer:
    """Lowers one checked program into a fresh :class:`Module`."""

    def __init__(self, program: ast.Program, checker: Checker, name: str = "module"):
        self.program = program
        self.checker = checker
        self.module = Module(name)
        self._b: Optional[IRBuilder] = None
        self._func: Optional[Function] = None
        self._vregs: Dict[int, VirtualRegister] = {}  # id(symbol) -> vreg
        self._loops: List[_LoopContext] = []

    # -- entry point -------------------------------------------------------------

    def lower(self) -> Module:
        for gdecl in self.program.globals:
            sym = self.checker.globals[gdecl.name]
            self.module.add_global(gdecl.name, sym.ty, gdecl.init)
        for fdecl in self.program.functions:
            self._lower_function(fdecl)
        return self.module

    # -- functions ----------------------------------------------------------------

    def _lower_function(self, decl: ast.FuncDecl) -> None:
        fsym = self.checker.functions[decl.name]
        params: List[VirtualRegister] = []
        self._vregs = {}
        func = Function(decl.name, [], fsym.return_type)
        for i, (p, pty) in enumerate(zip(decl.params, fsym.param_types)):
            reg = func.new_vreg(pty, p.name)
            params.append(reg)
        func.params = params
        self._func = func
        self._b = IRBuilder(func)
        entry = self._b.new_block("entry")
        self._b.set_block(entry)

        # Bind parameter symbols to their registers. The checker created one
        # scope per function; rediscover symbols by walking the declaration.
        for p, reg in zip(decl.params, params):
            self._bind_param(decl, p.name, reg)

        self._lower_block(decl.body)
        self._seal_function(func, fsym.return_type)
        self.module.add_function(func)

    def _bind_param(self, decl: ast.FuncDecl, name: str, reg: VirtualRegister) -> None:
        # Parameter symbols are matched by (function, name); sema stored the
        # binding on each Ident node, so map symbol identity -> register by
        # scanning for any Ident that bound a param with this name.
        self._param_bindings = getattr(self, "_param_bindings", {})
        self._param_bindings[(decl.name, name)] = reg

    def _symbol_reg(self, sym: Symbol) -> VirtualRegister:
        key = id(sym)
        if key not in self._vregs:
            if sym.kind == "param":
                assert self._func is not None
                fname = self._func.name
                reg = self._param_bindings.get((fname, sym.name))
                if reg is None:  # pragma: no cover - sema guarantees binding
                    raise TypeCheckError(f"unbound parameter {sym.name!r}")
                self._vregs[key] = reg
            else:
                assert self._func is not None
                self._vregs[key] = self._func.new_vreg(sym.ty, sym.name)
        return self._vregs[key]

    def _seal_function(self, func: Function, return_type: IRType) -> None:
        """Terminate fall-through blocks and drop unreachable ones."""
        for block in list(func):
            if block.terminator is None:
                if return_type == VOID:
                    block.append(Operation(Opcode.RET))
                elif return_type.is_float():
                    block.append(Operation(Opcode.RET, srcs=[Constant(0.0, FLOAT)]))
                else:
                    block.append(Operation(Opcode.RET, srcs=[Constant(0, return_type)]))
        _remove_unreachable(func)

    # -- statements -----------------------------------------------------------------

    def _lower_block(self, block: ast.Block) -> None:
        for stmt in block.stmts:
            self._lower_stmt(stmt)

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        b = self._b
        assert b is not None and b.block is not None
        if b.block.terminator is not None:
            # Dead code after return/break/continue: park it in a fresh
            # unreachable block so lowering can proceed; _seal_function
            # removes it afterwards.
            dead = b.new_block()
            b.set_block(dead)

        if isinstance(stmt, ast.Block):
            self._lower_block(stmt)
        elif isinstance(stmt, ast.VarDecl):
            sym = stmt.binding
            reg = self._symbol_reg(sym)
            if stmt.init is not None:
                value = self._lower_expr(stmt.init)
                value = self._coerce(value, sym.ty)
                b.mov_to(reg, value)
            else:
                zero = Constant(0.0, FLOAT) if sym.ty.is_float() else Constant(0, INT)
                b.mov_to(reg, zero)
        elif isinstance(stmt, ast.ExprStmt):
            self._lower_expr(stmt.expr, want_value=False)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._lower_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                b.ret()
            else:
                value = self._lower_expr(stmt.value)
                assert self._func is not None
                b.ret(self._coerce(value, self._func.return_type))
        elif isinstance(stmt, ast.Break):
            b.br(self._loops[-1].break_block)
        elif isinstance(stmt, ast.Continue):
            b.br(self._loops[-1].continue_block)
        else:  # pragma: no cover - checker exhausts statement kinds
            raise TypeCheckError(f"cannot lower {type(stmt).__name__}", stmt.loc)

    def _lower_if(self, stmt: ast.If) -> None:
        b = self._b
        then_bb = b.new_block()
        end_bb = b.new_block()
        else_bb = b.new_block() if stmt.orelse is not None else end_bb
        cond = self._lower_condition(stmt.cond)
        b.cbr(cond, then_bb, else_bb)
        b.set_block(then_bb)
        self._lower_stmt(stmt.then)
        if b.block.terminator is None:
            b.br(end_bb)
        if stmt.orelse is not None:
            b.set_block(else_bb)
            self._lower_stmt(stmt.orelse)
            if b.block.terminator is None:
                b.br(end_bb)
        b.set_block(end_bb)

    def _lower_while(self, stmt: ast.While) -> None:
        b = self._b
        cond_bb = b.new_block()
        body_bb = b.new_block()
        exit_bb = b.new_block()
        b.br(cond_bb)
        b.set_block(cond_bb)
        cond = self._lower_condition(stmt.cond)
        b.cbr(cond, body_bb, exit_bb)
        b.set_block(body_bb)
        self._loops.append(_LoopContext(exit_bb, cond_bb))
        self._lower_stmt(stmt.body)
        self._loops.pop()
        if b.block.terminator is None:
            b.br(cond_bb)
        b.set_block(exit_bb)

    def _lower_do_while(self, stmt: ast.DoWhile) -> None:
        b = self._b
        body_bb = b.new_block()
        cond_bb = b.new_block()
        exit_bb = b.new_block()
        b.br(body_bb)
        b.set_block(body_bb)
        self._loops.append(_LoopContext(exit_bb, cond_bb))
        self._lower_stmt(stmt.body)
        self._loops.pop()
        if b.block.terminator is None:
            b.br(cond_bb)
        b.set_block(cond_bb)
        cond = self._lower_condition(stmt.cond)
        b.cbr(cond, body_bb, exit_bb)
        b.set_block(exit_bb)

    def _lower_for(self, stmt: ast.For) -> None:
        b = self._b
        if stmt.init is not None:
            self._lower_stmt(stmt.init)
        cond_bb = b.new_block()
        body_bb = b.new_block()
        step_bb = b.new_block()
        exit_bb = b.new_block()
        b.br(cond_bb)
        b.set_block(cond_bb)
        if stmt.cond is not None:
            cond = self._lower_condition(stmt.cond)
            b.cbr(cond, body_bb, exit_bb)
        else:
            b.br(body_bb)
        b.set_block(body_bb)
        self._loops.append(_LoopContext(exit_bb, step_bb))
        self._lower_stmt(stmt.body)
        self._loops.pop()
        if b.block.terminator is None:
            b.br(step_bb)
        b.set_block(step_bb)
        if stmt.step is not None:
            self._lower_expr(stmt.step, want_value=False)
        b.br(cond_bb)
        b.set_block(exit_bb)

    # -- expressions ----------------------------------------------------------------------

    def _lower_condition(self, expr: ast.Expr):
        """Lower a branch condition to an i32 truth value."""
        value = self._lower_expr(expr)
        if value.ty.is_float():
            return self._b.fcmp("ne", value, Constant(0.0, FLOAT))
        return value

    def _lower_expr(self, expr: ast.Expr, want_value: bool = True):
        b = self._b
        if isinstance(expr, ast.IntLit):
            return Constant(expr.value, INT)
        if isinstance(expr, ast.FloatLit):
            return Constant(expr.value, FLOAT)
        if isinstance(expr, ast.SizeOf):
            return Constant(expr.value, INT)
        if isinstance(expr, ast.Ident):
            sym = expr.binding
            if sym.kind == "global":
                if isinstance(sym.ty, ArrayType):
                    return GlobalAddress(sym.name, sym.ty.element)  # decayed
                return b.load(GlobalAddress(sym.name, sym.ty))
            return self._symbol_reg(sym)
        if isinstance(expr, ast.Malloc):
            size = self._lower_expr(expr.size)
            pointee = expr.ty.pointee if isinstance(expr.ty, PointerType) else INT
            return b.malloc(size, expr.site, pointee)
        if isinstance(expr, ast.Assign):
            return self._lower_assign(expr, want_value)
        if isinstance(expr, ast.Unary):
            return self._lower_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._lower_binary(expr)
        if isinstance(expr, ast.Index):
            addr, elem_ty = self._lower_address(expr)
            return b.load(addr, elem_ty)
        if isinstance(expr, ast.Field):
            addr, field_ty = self._lower_address(expr)
            return b.load(addr, field_ty)
        if isinstance(expr, ast.Call):
            return self._lower_call(expr)
        if isinstance(expr, ast.Cast):
            value = self._lower_expr(expr.operand)
            return self._coerce(value, expr.ty)
        if isinstance(expr, ast.Ternary):
            return self._lower_ternary(expr)
        raise TypeCheckError(  # pragma: no cover - checker exhausts cases
            f"cannot lower {type(expr).__name__}", expr.loc
        )

    def _lower_assign(self, expr: ast.Assign, want_value: bool):
        b = self._b
        value = self._lower_expr(expr.value)
        value = self._coerce(value, expr.ty)
        target = expr.target
        if isinstance(target, ast.Ident) and target.binding.kind != "global":
            reg = self._symbol_reg(target.binding)
            b.mov_to(reg, value)
            return reg
        addr, _ = self._lower_address(target)
        b.store(value, addr)
        return value if want_value else value

    def _lower_address(self, expr: ast.Expr) -> Tuple[object, IRType]:
        """Lower a memory lvalue to (address value, value type)."""
        b = self._b
        if isinstance(expr, ast.Ident):
            sym = expr.binding
            assert sym.kind == "global", "register lvalues handled by caller"
            if isinstance(sym.ty, ArrayType):
                return GlobalAddress(sym.name, sym.ty.element), sym.ty.element
            return GlobalAddress(sym.name, sym.ty), sym.ty
        if isinstance(expr, ast.Index):
            base = self._lower_expr(expr.base)
            elem_ty = expr.ty
            index = self._lower_expr(expr.index)
            offset = self._scale(index, elem_ty.size())
            addr = b.ptradd(base, offset, PointerType(elem_ty))
            return addr, elem_ty
        if isinstance(expr, ast.Field):
            field_ty = expr.ty
            if expr.arrow:
                base = self._lower_expr(expr.base)
                struct = expr.base.ty.pointee
            else:
                base, _ = self._lower_address(expr.base)
                struct = expr.base.ty
            offset = struct.offset_of(expr.name)
            if offset == 0:
                # Reuse the base pointer; retype via zero-length ptradd only
                # when the base is already correctly typed.
                addr = b.ptradd(base, Constant(0, INT), PointerType(field_ty))
            else:
                addr = b.ptradd(base, Constant(offset, INT), PointerType(field_ty))
            return addr, field_ty
        if isinstance(expr, ast.Unary) and expr.op == "*":
            ptr = self._lower_expr(expr.operand)
            return ptr, expr.ty
        raise TypeCheckError("expression is not a memory lvalue", expr.loc)

    def _scale(self, index, elem_size: int):
        """index * elem_size, folding constant indices."""
        if isinstance(index, Constant):
            return Constant(index.value * elem_size, INT)
        if elem_size == 1:
            return index
        return self._b.mul(index, Constant(elem_size, INT))

    def _lower_unary(self, expr: ast.Unary):
        b = self._b
        if expr.op == "&":
            addr, _ = self._lower_address(expr.operand)
            return addr
        if expr.op == "*":
            ptr = self._lower_expr(expr.operand)
            return b.load(ptr, expr.ty)
        value = self._lower_expr(expr.operand)
        if expr.op == "-":
            return b.fneg(value) if value.ty.is_float() else b.neg(value)
        if expr.op == "!":
            if value.ty.is_float():
                return b.fcmp("eq", value, Constant(0.0, FLOAT))
            return b.cmp("eq", value, Constant(0, INT))
        if expr.op == "~":
            return b.not_(value)
        raise TypeCheckError(f"unknown unary {expr.op!r}", expr.loc)

    _INT_OPS = {
        "+": "add", "-": "sub", "*": "mul", "/": "div", "%": "rem",
        "<<": "shl", ">>": "shr", "&": "and_", "|": "or_", "^": "xor",
    }
    _FLOAT_OPS = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}
    _CMP = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}

    def _lower_binary(self, expr: ast.Binary):
        b = self._b
        op = expr.op
        if op in ("&&", "||"):
            return self._lower_short_circuit(expr)
        lhs = self._lower_expr(expr.lhs)
        rhs = self._lower_expr(expr.rhs)
        if op in self._CMP:
            if lhs.ty.is_float() or rhs.ty.is_float():
                lhs = self._coerce(lhs, FLOAT)
                rhs = self._coerce(rhs, FLOAT)
                return b.fcmp(self._CMP[op], lhs, rhs)
            return b.cmp(self._CMP[op], lhs, rhs)
        # Pointer arithmetic scales by element size.
        if lhs.ty.is_pointer() or rhs.ty.is_pointer():
            if rhs.ty.is_pointer():
                lhs, rhs = rhs, lhs
            elem = lhs.ty.pointee
            elem_size = elem.size() if not isinstance(elem, ArrayType) else elem.element.size()
            offset = self._scale(rhs, elem_size)
            if op == "-":
                offset = b.neg(offset) if not isinstance(offset, Constant) else Constant(
                    -offset.value, INT
                )
            return b.ptradd(lhs, offset, expr.ty)
        if expr.ty.is_float():
            lhs = self._coerce(lhs, FLOAT)
            rhs = self._coerce(rhs, FLOAT)
            return getattr(b, self._FLOAT_OPS[op])(lhs, rhs)
        return getattr(b, self._INT_OPS[op])(lhs, rhs)

    def _lower_short_circuit(self, expr: ast.Binary):
        b = self._b
        assert self._func is not None
        result = self._func.new_vreg(INT, "sc")
        rhs_bb = b.new_block()
        end_bb = b.new_block()
        lhs_cond = self._lower_condition_value(expr.lhs)
        if expr.op == "&&":
            b.mov_to(result, Constant(0, INT))
            b.cbr(lhs_cond, rhs_bb, end_bb)
        else:
            b.mov_to(result, Constant(1, INT))
            b.cbr(lhs_cond, end_bb, rhs_bb)
        b.set_block(rhs_bb)
        rhs_cond = self._lower_condition_value(expr.rhs)
        truthy = b.cmp("ne", rhs_cond, Constant(0, INT))
        b.mov_to(result, truthy)
        b.br(end_bb)
        b.set_block(end_bb)
        return result

    def _lower_condition_value(self, expr: ast.Expr):
        value = self._lower_expr(expr)
        if value.ty.is_float():
            return self._b.fcmp("ne", value, Constant(0.0, FLOAT))
        return value

    def _lower_ternary(self, expr: ast.Ternary):
        b = self._b
        assert self._func is not None
        if _select_safe(expr.if_true) and _select_safe(expr.if_false):
            # Pure, non-faulting arms lower to a SELECT: both sides are
            # evaluated and the condition picks one — the predicated form
            # if-conversion relies on for straight-line regions.
            cond = self._lower_condition(expr.cond)
            tval = self._coerce(self._lower_expr(expr.if_true), expr.ty)
            fval = self._coerce(self._lower_expr(expr.if_false), expr.ty)
            return b.select(cond, tval, fval)
        result = self._func.new_vreg(expr.ty, "sel")
        then_bb = b.new_block()
        else_bb = b.new_block()
        end_bb = b.new_block()
        cond = self._lower_condition(expr.cond)
        b.cbr(cond, then_bb, else_bb)
        b.set_block(then_bb)
        tval = self._coerce(self._lower_expr(expr.if_true), expr.ty)
        b.mov_to(result, tval)
        b.br(end_bb)
        b.set_block(else_bb)
        fval = self._coerce(self._lower_expr(expr.if_false), expr.ty)
        b.mov_to(result, fval)
        b.br(end_bb)
        b.set_block(end_bb)
        return result

    def _lower_call(self, expr: ast.Call):
        b = self._b
        from .sema import INTRINSICS

        if expr.name in INTRINSICS:
            ret, param_types = INTRINSICS[expr.name]
        else:
            fsym = self.checker.functions[expr.name]
            ret, param_types = fsym.return_type, fsym.param_types
        args = []
        for arg, pty in zip(expr.args, param_types):
            args.append(self._coerce(self._lower_expr(arg), pty))
        return b.call(expr.name, args, ret)

    def _coerce(self, value, want: IRType):
        """Insert ITOF/FTOI for implicit numeric conversions."""
        if value.ty == want:
            return value
        if want.is_float() and value.ty.is_integer():
            if isinstance(value, Constant):
                return Constant(float(value.value), FLOAT)
            return self._b.itof(value)
        if want.is_integer() and value.ty.is_float():
            if isinstance(value, Constant):
                return Constant(int(value.value), INT)
            return self._b.ftoi(value)
        if want.is_pointer() and value.ty.is_pointer():
            return value  # pointer types interconvert without code
        if want.is_integer() and value.ty.is_integer():
            return value
        raise TypeCheckError(f"cannot coerce {value.ty} to {want}")


def _select_safe(expr: ast.Expr) -> bool:
    """Arms that may be evaluated unconditionally for a SELECT: register
    arithmetic and scalar-global reads only — no computed-address loads,
    no division, no side effects."""
    if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.SizeOf)):
        return True
    if isinstance(expr, ast.Ident):
        return True  # locals are registers; global scalars cannot fault
    if isinstance(expr, ast.Unary):
        return expr.op in ("-", "!", "~") and _select_safe(expr.operand)
    if isinstance(expr, ast.Binary):
        if expr.op in ("/", "%"):
            return False
        return _select_safe(expr.lhs) and _select_safe(expr.rhs)
    if isinstance(expr, ast.Cast):
        return _select_safe(expr.operand)
    if isinstance(expr, ast.Ternary):
        return (
            _select_safe(expr.cond)
            and _select_safe(expr.if_true)
            and _select_safe(expr.if_false)
        )
    return False


def _remove_unreachable(func: Function) -> None:
    """Drop blocks not reachable from the entry block."""
    if not func.blocks:
        return
    seen = set()
    work = [func.entry.name]
    while work:
        name = work.pop()
        if name in seen:
            continue
        seen.add(name)
        for succ in func.blocks[name].successors():
            if succ not in seen:
                work.append(succ)
    for name in [n for n in func.blocks if n not in seen]:
        func.remove_block(name)


def compile_source(
    source: str,
    name: str = "module",
    unroll_factor: int = 0,
    if_convert: bool = False,
) -> Module:
    """Compile MiniC source text to a verified IR module.

    ``if_convert`` predicates small control diamonds into selects (the
    hyperblock analogue); ``unroll_factor`` >= 2 then unrolls eligible
    innermost counted loops (see :mod:`repro.lang.unroll`).  Both default
    off so the frontend is a pure translator; the evaluation pipeline
    enables both to recover Trimaran-style region ILP.
    """
    from ..ir.verifier import verify_module

    program = parse(source)
    if if_convert:
        from .ifconvert import if_convert_program

        if_convert_program(program)
    if unroll_factor >= 2:
        from .unroll import unroll_program

        unroll_program(program, unroll_factor)
    checker = check(program)
    module = Lowerer(program, checker, name).lower()
    verify_module(module)
    return module
