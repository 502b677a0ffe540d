"""Semantic analysis (symbol resolution + type checking) for MiniC.

The checker resolves identifiers to symbols, computes an IR type for every
expression (stored on ``expr.ty``), folds ``sizeof``, assigns allocation-site
ids to ``malloc`` expressions, and rejects ill-formed programs with
:class:`~repro.lang.errors.TypeCheckError`.

MiniC restrictions enforced here (deliberate, documented in DESIGN.md):

* locals are scalars or pointers only — arrays and structs live in global
  storage or on the heap, matching the paper's data-object model;
* address-of applies to memory lvalues (globals, fields, elements), never
  to register-resident locals.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.types import (
    FLOAT,
    INT,
    VOID,
    ArrayType,
    IRType,
    PointerType,
    StructType,
)
from . import ast
from .errors import TypeCheckError

#: Intrinsic functions available without definition.
INTRINSICS: Dict[str, Tuple[IRType, List[IRType]]] = {
    "print_int": (VOID, [INT]),
    "print_float": (VOID, [FLOAT]),
}


class Symbol:
    """A named entity: global variable, local, parameter, or function."""

    def __init__(self, name: str, ty: IRType, kind: str):
        self.name = name
        self.ty = ty
        self.kind = kind  # "global" | "local" | "param" | "func"

    def is_memory_resident(self) -> bool:
        return self.kind == "global"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.kind} {self.name}: {self.ty}>"


class FunctionSymbol(Symbol):
    def __init__(self, name: str, return_type: IRType, param_types: List[IRType]):
        super().__init__(name, return_type, "func")
        self.return_type = return_type
        self.param_types = param_types


class Scope:
    """A lexical scope chain for local symbol lookup."""

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self.symbols: Dict[str, Symbol] = {}

    def declare(self, sym: Symbol, loc) -> None:
        if sym.name in self.symbols:
            raise TypeCheckError(f"redeclaration of {sym.name!r}", loc)
        self.symbols[sym.name] = sym

    def lookup(self, name: str) -> Optional[Symbol]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


class Checker:
    """Type checker; call :meth:`check` once per program."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.structs: Dict[str, StructType] = {}
        self.globals: Dict[str, Symbol] = {}
        self.functions: Dict[str, FunctionSymbol] = {}
        self._current_fn: Optional[FunctionSymbol] = None
        self._current_fn_name = ""
        self._loop_depth = 0
        self._malloc_counter = 0

    # -- type resolution --------------------------------------------------------

    def resolve_type(self, spec: ast.TypeSpec) -> IRType:
        if isinstance(spec.base, tuple):
            name = spec.base[1]
            if name not in self.structs:
                raise TypeCheckError(f"unknown struct {name!r}", spec.loc)
            base: IRType = self.structs[name]
        elif spec.base == "int":
            base = INT
        elif spec.base == "float":
            base = FLOAT
        elif spec.base == "void":
            base = VOID
        else:  # pragma: no cover - parser guarantees base values
            raise TypeCheckError(f"unknown type {spec.base!r}", spec.loc)
        for _ in range(spec.pointer_depth):
            base = PointerType(base)
        return base

    # -- program ------------------------------------------------------------------

    def check(self) -> "Checker":
        for sdecl in self.program.structs:
            if sdecl.name in self.structs:
                raise TypeCheckError(f"duplicate struct {sdecl.name!r}", sdecl.loc)
            # Two-phase: allow pointer-to-self fields by pre-registering.
            fields: List[Tuple[str, IRType]] = []
            self.structs[sdecl.name] = StructType(sdecl.name, [])
            for fspec, fname in sdecl.fields:
                fields.append((fname, self.resolve_type(fspec)))
            self.structs[sdecl.name] = StructType(sdecl.name, fields)

        for gdecl in self.program.globals:
            self._check_global(gdecl)

        for fdecl in self.program.functions:
            if fdecl.name in self.functions or fdecl.name in INTRINSICS:
                raise TypeCheckError(f"duplicate function {fdecl.name!r}", fdecl.loc)
            ret = self.resolve_type(fdecl.return_spec)
            param_types = [self.resolve_type(p.type_spec) for p in fdecl.params]
            for p, pty in zip(fdecl.params, param_types):
                if isinstance(pty, (ArrayType, StructType)):
                    raise TypeCheckError(
                        f"parameter {p.name!r} must be scalar or pointer", p.loc
                    )
            self.functions[fdecl.name] = FunctionSymbol(fdecl.name, ret, param_types)

        for fdecl in self.program.functions:
            self._check_function(fdecl)
        return self

    def _check_global(self, decl: ast.GlobalDecl) -> None:
        if decl.name in self.globals:
            raise TypeCheckError(f"duplicate global {decl.name!r}", decl.loc)
        base = self.resolve_type(decl.type_spec)
        if base == VOID:
            raise TypeCheckError("global cannot have void type", decl.loc)
        ty: IRType = base
        if decl.array_size is not None:
            if isinstance(base, StructType):
                raise TypeCheckError("arrays of structs are not supported", decl.loc)
            ty = ArrayType(base, decl.array_size)
        if decl.init is not None:
            if isinstance(decl.init, list):
                if not isinstance(ty, ArrayType):
                    raise TypeCheckError(
                        "initializer list requires an array type", decl.loc
                    )
                if len(decl.init) > ty.count:
                    raise TypeCheckError(
                        f"too many initializers for {decl.name!r}", decl.loc
                    )
            elif isinstance(ty, (ArrayType, StructType)):
                raise TypeCheckError(
                    "scalar initializer on aggregate global", decl.loc
                )
        self.globals[decl.name] = Symbol(decl.name, ty, "global")

    # -- functions ---------------------------------------------------------------------

    def _check_function(self, decl: ast.FuncDecl) -> None:
        fsym = self.functions[decl.name]
        self._current_fn = fsym
        self._current_fn_name = decl.name
        scope = Scope()
        for p, pty in zip(decl.params, fsym.param_types):
            sym = Symbol(p.name, pty, "param")
            scope.declare(sym, p.loc)
        self._check_block(decl.body, Scope(scope))
        self._current_fn = None

    def _check_block(self, block: ast.Block, scope: Scope) -> None:
        for stmt in block.stmts:
            self._check_stmt(stmt, scope)

    def _check_stmt(self, stmt: ast.Stmt, scope: Scope) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt, Scope(scope))
        elif isinstance(stmt, ast.VarDecl):
            ty = self.resolve_type(stmt.type_spec)
            if isinstance(ty, (ArrayType, StructType)) or ty == VOID:
                raise TypeCheckError(
                    "locals must be int, float, or pointer "
                    "(use globals or malloc for aggregates)",
                    stmt.loc,
                )
            if stmt.init is not None:
                init_ty = self._check_expr(stmt.init, scope, expected=ty)
                self._require_assignable(ty, init_ty, stmt.loc)
            sym = Symbol(stmt.name, ty, "local")
            scope.declare(sym, stmt.loc)
            stmt.binding = sym
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.If):
            self._check_condition(stmt.cond, scope)
            self._check_stmt(stmt.then, Scope(scope))
            if stmt.orelse is not None:
                self._check_stmt(stmt.orelse, Scope(scope))
        elif isinstance(stmt, ast.While):
            self._check_condition(stmt.cond, scope)
            self._loop_depth += 1
            self._check_stmt(stmt.body, Scope(scope))
            self._loop_depth -= 1
        elif isinstance(stmt, ast.DoWhile):
            self._loop_depth += 1
            self._check_stmt(stmt.body, Scope(scope))
            self._loop_depth -= 1
            self._check_condition(stmt.cond, scope)
        elif isinstance(stmt, ast.For):
            inner = Scope(scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, inner)
            if stmt.cond is not None:
                self._check_condition(stmt.cond, inner)
            if stmt.step is not None:
                self._check_expr(stmt.step, inner)
            self._loop_depth += 1
            self._check_stmt(stmt.body, Scope(inner))
            self._loop_depth -= 1
        elif isinstance(stmt, ast.Return):
            assert self._current_fn is not None
            want = self._current_fn.return_type
            if stmt.value is None:
                if want != VOID:
                    raise TypeCheckError("missing return value", stmt.loc)
            else:
                if want == VOID:
                    raise TypeCheckError("void function returns a value", stmt.loc)
                got = self._check_expr(stmt.value, scope, expected=want)
                self._require_assignable(want, got, stmt.loc)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if self._loop_depth == 0:
                raise TypeCheckError("break/continue outside of a loop", stmt.loc)
        else:  # pragma: no cover - parser produces only the above
            raise TypeCheckError(f"unknown statement {type(stmt).__name__}", stmt.loc)

    def _check_condition(self, expr: ast.Expr, scope: Scope) -> None:
        ty = self._check_expr(expr, scope)
        if not (ty.is_integer() or ty.is_float() or ty.is_pointer()):
            raise TypeCheckError(f"condition has non-scalar type {ty}", expr.loc)

    # -- expressions ----------------------------------------------------------------------

    def _check_expr(
        self, expr: ast.Expr, scope: Scope, expected: Optional[IRType] = None
    ) -> IRType:
        ty = self._expr_type(expr, scope, expected)
        expr.ty = ty
        return ty

    def _expr_type(
        self, expr: ast.Expr, scope: Scope, expected: Optional[IRType]
    ) -> IRType:
        if isinstance(expr, ast.IntLit):
            return INT
        if isinstance(expr, ast.FloatLit):
            return FLOAT
        if isinstance(expr, ast.SizeOf):
            expr.value = self.resolve_type(expr.type_spec).size()
            return INT
        if isinstance(expr, ast.Ident):
            sym = scope.lookup(expr.name) or self.globals.get(expr.name)
            if sym is None:
                raise TypeCheckError(f"undefined variable {expr.name!r}", expr.loc)
            expr.binding = sym
            if isinstance(sym.ty, ArrayType):
                return PointerType(sym.ty.element)  # array decays to pointer
            return sym.ty
        if isinstance(expr, ast.Malloc):
            size_ty = self._check_expr(expr.size, scope)
            if not size_ty.is_integer():
                raise TypeCheckError("malloc size must be an int", expr.loc)
            self._malloc_counter += 1
            expr.site = f"{self._current_fn_name}.malloc{self._malloc_counter}"
            if expected is not None and expected.is_pointer():
                return expected
            return PointerType(INT)
        if isinstance(expr, ast.Unary):
            return self._check_unary(expr, scope)
        if isinstance(expr, ast.Binary):
            return self._check_binary(expr, scope)
        if isinstance(expr, ast.Assign):
            return self._check_assign(expr, scope)
        if isinstance(expr, ast.Index):
            return self._check_index(expr, scope)
        if isinstance(expr, ast.Field):
            return self._check_field(expr, scope)
        if isinstance(expr, ast.Call):
            return self._check_call(expr, scope)
        if isinstance(expr, ast.Cast):
            target = self.resolve_type(expr.type_spec)
            src = self._check_expr(expr.operand, scope, expected=target)
            if target.is_pointer() and not src.is_pointer():
                raise TypeCheckError("cannot cast non-pointer to pointer", expr.loc)
            if not target.is_pointer() and src.is_pointer():
                raise TypeCheckError("cannot cast pointer to non-pointer", expr.loc)
            return target
        if isinstance(expr, ast.Ternary):
            self._check_condition(expr.cond, scope)
            t1 = self._check_expr(expr.if_true, scope, expected=expected)
            t2 = self._check_expr(expr.if_false, scope, expected=expected)
            if t1 == t2:
                return t1
            if {t1, t2} == {INT, FLOAT}:
                return FLOAT
            raise TypeCheckError(f"ternary arms disagree: {t1} vs {t2}", expr.loc)
        raise TypeCheckError(  # pragma: no cover - parser exhausts cases
            f"unknown expression {type(expr).__name__}", expr.loc
        )

    def _check_unary(self, expr: ast.Unary, scope: Scope) -> IRType:
        if expr.op == "&":
            inner = self._check_expr(expr.operand, scope)
            if not self._is_memory_lvalue(expr.operand):
                raise TypeCheckError(
                    "address-of requires a memory lvalue (global, field, or "
                    "element); locals live in registers",
                    expr.loc,
                )
            return PointerType(inner)
        ty = self._check_expr(expr.operand, scope)
        if expr.op == "*":
            if not isinstance(ty, PointerType):
                raise TypeCheckError(f"cannot dereference {ty}", expr.loc)
            if isinstance(ty.pointee, (ArrayType,)):
                return PointerType(ty.pointee.element)
            return ty.pointee
        if expr.op == "-":
            if not (ty.is_integer() or ty.is_float()):
                raise TypeCheckError(f"cannot negate {ty}", expr.loc)
            return ty
        if expr.op in ("!",):
            if not (ty.is_integer() or ty.is_float() or ty.is_pointer()):
                raise TypeCheckError(f"cannot apply ! to {ty}", expr.loc)
            return INT
        if expr.op == "~":
            if not ty.is_integer():
                raise TypeCheckError("~ requires an int operand", expr.loc)
            return INT
        raise TypeCheckError(f"unknown unary op {expr.op!r}", expr.loc)

    def _check_binary(self, expr: ast.Binary, scope: Scope) -> IRType:
        lt = self._check_expr(expr.lhs, scope)
        rt = self._check_expr(expr.rhs, scope)
        op = expr.op
        if op in ("&&", "||"):
            return INT
        if op in ("==", "!=", "<", "<=", ">", ">="):
            if lt.is_pointer() and rt.is_pointer():
                return INT
            if (lt.is_integer() or lt.is_float()) and (
                rt.is_integer() or rt.is_float()
            ):
                return INT
            raise TypeCheckError(f"cannot compare {lt} with {rt}", expr.loc)
        if op in ("%", "<<", ">>", "&", "|", "^"):
            if not (lt.is_integer() and rt.is_integer()):
                raise TypeCheckError(f"{op} requires int operands", expr.loc)
            return INT
        if op in ("+", "-"):
            if lt.is_pointer() and rt.is_integer():
                return lt
            if op == "+" and lt.is_integer() and rt.is_pointer():
                return rt
        if op in ("+", "-", "*", "/"):
            if lt.is_pointer() or rt.is_pointer():
                raise TypeCheckError(f"invalid pointer arithmetic {lt} {op} {rt}", expr.loc)
            if lt.is_float() or rt.is_float():
                return FLOAT
            return INT
        raise TypeCheckError(f"unknown binary op {op!r}", expr.loc)

    def _check_assign(self, expr: ast.Assign, scope: Scope) -> IRType:
        target_ty = self._check_expr(expr.target, scope)
        if not self._is_lvalue(expr.target):
            raise TypeCheckError("assignment target is not an lvalue", expr.loc)
        value_ty = self._check_expr(expr.value, scope, expected=target_ty)
        self._require_assignable(target_ty, value_ty, expr.loc)
        return target_ty

    def _check_index(self, expr: ast.Index, scope: Scope) -> IRType:
        base_ty = self._check_expr(expr.base, scope)
        index_ty = self._check_expr(expr.index, scope)
        if not index_ty.is_integer():
            raise TypeCheckError("array index must be an int", expr.loc)
        if isinstance(base_ty, PointerType):
            pointee = base_ty.pointee
            if isinstance(pointee, ArrayType):
                return pointee.element
            if isinstance(pointee, StructType):
                raise TypeCheckError("cannot index pointer-to-struct", expr.loc)
            return pointee
        raise TypeCheckError(f"cannot index value of type {base_ty}", expr.loc)

    def _check_field(self, expr: ast.Field, scope: Scope) -> IRType:
        base_ty = self._check_expr(expr.base, scope)
        if expr.arrow:
            if not (
                isinstance(base_ty, PointerType)
                and isinstance(base_ty.pointee, StructType)
            ):
                raise TypeCheckError("-> requires a pointer to struct", expr.loc)
            struct = base_ty.pointee
        else:
            if not isinstance(base_ty, StructType):
                raise TypeCheckError(". requires a struct value", expr.loc)
            struct = base_ty
        if not struct.has_field(expr.name):
            raise TypeCheckError(
                f"struct {struct.name} has no field {expr.name!r}", expr.loc
            )
        return struct.field_type(expr.name)

    def _check_call(self, expr: ast.Call, scope: Scope) -> IRType:
        if expr.name in INTRINSICS:
            ret, param_types = INTRINSICS[expr.name]
        elif expr.name in self.functions:
            fsym = self.functions[expr.name]
            ret, param_types = fsym.return_type, fsym.param_types
        else:
            raise TypeCheckError(f"call to undefined function {expr.name!r}", expr.loc)
        if len(expr.args) != len(param_types):
            raise TypeCheckError(
                f"{expr.name} expects {len(param_types)} args, got {len(expr.args)}",
                expr.loc,
            )
        for arg, pty in zip(expr.args, param_types):
            aty = self._check_expr(arg, scope, expected=pty)
            self._require_assignable(pty, aty, arg.loc)
        return ret

    # -- helpers ---------------------------------------------------------------------

    def _require_assignable(self, target: IRType, value: IRType, loc) -> None:
        if target == value:
            return
        if target.is_float() and value.is_integer():
            return  # implicit int -> float
        if target.is_integer() and value.is_float():
            return  # implicit float -> int (truncation)
        if target.is_pointer() and value.is_pointer():
            return  # pointers interconvert freely (malloc results, etc.)
        raise TypeCheckError(f"cannot assign {value} to {target}", loc)

    def _is_lvalue(self, expr: ast.Expr) -> bool:
        if isinstance(expr, ast.Ident):
            sym = expr.binding
            return sym is not None and not isinstance(sym.ty, ArrayType)
        return isinstance(expr, (ast.Index, ast.Field)) or (
            isinstance(expr, ast.Unary) and expr.op == "*"
        )

    def _is_memory_lvalue(self, expr: ast.Expr) -> bool:
        if isinstance(expr, ast.Ident):
            sym = expr.binding
            return sym is not None and sym.is_memory_resident()
        return isinstance(expr, (ast.Index, ast.Field)) or (
            isinstance(expr, ast.Unary) and expr.op == "*"
        )


def check(program: ast.Program) -> Checker:
    """Run semantic analysis; returns the populated checker."""
    return Checker(program).check()
