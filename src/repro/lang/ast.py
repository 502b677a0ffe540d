"""Abstract syntax tree for MiniC.

Nodes are plain data classes; the type checker decorates expressions with
a ``ty`` attribute (an :class:`repro.ir.types.IRType`) consumed by
lowering.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, TypeVar, Union

from .errors import SourceLocation

N = TypeVar("N", bound="Node")


class Node:
    """Base AST node; every node records its source location."""

    def __init__(self, loc: SourceLocation):
        self.loc = loc


def clone(node: N) -> N:
    """Structural copy of an unchecked subtree: fresh nodes, lists and
    tuples, shared source locations and scalars (nothing mutates them).
    Unlike ``copy.deepcopy`` it does not preserve aliasing inside the
    subtree; parsed and transformed ASTs have none."""
    copy = object.__new__(type(node))
    copy.__dict__ = {key: _clone_value(value) for key, value in node.__dict__.items()}
    return copy


def _clone_value(value):
    if isinstance(value, Node):
        return clone(value)
    if isinstance(value, list):
        return [_clone_value(item) for item in value]
    if isinstance(value, tuple):
        return tuple(_clone_value(item) for item in value)
    return value


# ---------------------------------------------------------------------------
# Type syntax (resolved to IR types by the checker)
# ---------------------------------------------------------------------------


class TypeSpec(Node):
    """A syntactic type: base name + pointer depth.

    ``base`` is ``"int"``, ``"float"``, ``"void"`` or ``("struct", name)``.
    """

    def __init__(self, loc, base, pointer_depth: int = 0):
        super().__init__(loc)
        self.base = base
        self.pointer_depth = pointer_depth

    def __str__(self) -> str:
        base = self.base if isinstance(self.base, str) else f"struct {self.base[1]}"
        return base + "*" * self.pointer_depth


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    """Base expression; ``ty`` is set by the type checker."""

    def __init__(self, loc):
        super().__init__(loc)
        self.ty = None


class IntLit(Expr):
    def __init__(self, loc, value: int):
        super().__init__(loc)
        self.value = value


class FloatLit(Expr):
    def __init__(self, loc, value: float):
        super().__init__(loc)
        self.value = value


class Ident(Expr):
    """A variable reference; the checker sets ``binding`` to the symbol."""

    def __init__(self, loc, name: str):
        super().__init__(loc)
        self.name = name
        self.binding = None


class Unary(Expr):
    """Unary operator: ``-``, ``!``, ``~``, ``*`` (deref), ``&`` (address-of)."""

    def __init__(self, loc, op: str, operand: Expr):
        super().__init__(loc)
        self.op = op
        self.operand = operand


class Binary(Expr):
    """Binary operator, including comparisons and short-circuit ``&&``/``||``."""

    def __init__(self, loc, op: str, lhs: Expr, rhs: Expr):
        super().__init__(loc)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs


class Assign(Expr):
    """Assignment expression ``lvalue = value`` (value usable in context)."""

    def __init__(self, loc, target: Expr, value: Expr):
        super().__init__(loc)
        self.target = target
        self.value = value


class Index(Expr):
    """Array/pointer subscript ``base[index]``."""

    def __init__(self, loc, base: Expr, index: Expr):
        super().__init__(loc)
        self.base = base
        self.index = index


class Field(Expr):
    """Struct member access: ``base.name`` (``arrow=False``) or ``base->name``."""

    def __init__(self, loc, base: Expr, name: str, arrow: bool):
        super().__init__(loc)
        self.base = base
        self.name = name
        self.arrow = arrow


class Call(Expr):
    """Function call by name."""

    def __init__(self, loc, name: str, args: List[Expr]):
        super().__init__(loc)
        self.name = name
        self.args = args


class Malloc(Expr):
    """Heap allocation ``malloc(size_bytes)``; type comes from context."""

    def __init__(self, loc, size: Expr):
        super().__init__(loc)
        self.size = size
        self.site: Optional[str] = None  # set by the checker


class SizeOf(Expr):
    """``sizeof(type)`` — folded to a constant by the checker."""

    def __init__(self, loc, type_spec: TypeSpec):
        super().__init__(loc)
        self.type_spec = type_spec
        self.value: Optional[int] = None


class Cast(Expr):
    """Explicit conversion ``(int)e`` or ``(float)e`` or pointer cast."""

    def __init__(self, loc, type_spec: TypeSpec, operand: Expr):
        super().__init__(loc)
        self.type_spec = type_spec
        self.operand = operand


class Ternary(Expr):
    """Conditional expression ``cond ? a : b``."""

    def __init__(self, loc, cond: Expr, if_true: Expr, if_false: Expr):
        super().__init__(loc)
        self.cond = cond
        self.if_true = if_true
        self.if_false = if_false


def children(expr: Expr) -> List[Expr]:
    """The direct sub-expressions of ``expr``, in source order."""
    if isinstance(expr, Unary):
        return [expr.operand]
    if isinstance(expr, Binary):
        return [expr.lhs, expr.rhs]
    if isinstance(expr, Assign):
        return [expr.target, expr.value]
    if isinstance(expr, Index):
        return [expr.base, expr.index]
    if isinstance(expr, Field):
        return [expr.base]
    if isinstance(expr, Call):
        return list(expr.args)
    if isinstance(expr, Malloc):
        return [expr.size]
    if isinstance(expr, Cast):
        return [expr.operand]
    if isinstance(expr, Ternary):
        return [expr.cond, expr.if_true, expr.if_false]
    return []


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    pass


class ExprStmt(Stmt):
    def __init__(self, loc, expr: Expr):
        super().__init__(loc)
        self.expr = expr


class VarDecl(Stmt):
    """Local scalar/pointer declaration with optional initializer."""

    def __init__(self, loc, type_spec: TypeSpec, name: str, init: Optional[Expr]):
        super().__init__(loc)
        self.type_spec = type_spec
        self.name = name
        self.init = init
        self.binding = None  # set by the checker


class Block(Stmt):
    def __init__(self, loc, stmts: List[Stmt]):
        super().__init__(loc)
        self.stmts = stmts


class If(Stmt):
    def __init__(self, loc, cond: Expr, then: Stmt, orelse: Optional[Stmt]):
        super().__init__(loc)
        self.cond = cond
        self.then = then
        self.orelse = orelse


class While(Stmt):
    def __init__(self, loc, cond: Expr, body: Stmt):
        super().__init__(loc)
        self.cond = cond
        self.body = body


class DoWhile(Stmt):
    def __init__(self, loc, body: Stmt, cond: Expr):
        super().__init__(loc)
        self.body = body
        self.cond = cond


class For(Stmt):
    def __init__(
        self,
        loc,
        init: Optional[Stmt],
        cond: Optional[Expr],
        step: Optional[Expr],
        body: Stmt,
    ):
        super().__init__(loc)
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body


class Return(Stmt):
    def __init__(self, loc, value: Optional[Expr]):
        super().__init__(loc)
        self.value = value


class Break(Stmt):
    pass


class Continue(Stmt):
    pass


# ---------------------------------------------------------------------------
# Top-level declarations
# ---------------------------------------------------------------------------


class Param(Node):
    def __init__(self, loc, type_spec: TypeSpec, name: str):
        super().__init__(loc)
        self.type_spec = type_spec
        self.name = name


class FuncDecl(Node):
    def __init__(
        self,
        loc,
        return_spec: TypeSpec,
        name: str,
        params: List[Param],
        body: Block,
    ):
        super().__init__(loc)
        self.return_spec = return_spec
        self.name = name
        self.params = params
        self.body = body


class GlobalDecl(Node):
    """Global variable: scalar, pointer, or array (``array_size`` not None).

    ``init`` is an optional scalar literal or list of literals.
    """

    def __init__(
        self,
        loc,
        type_spec: TypeSpec,
        name: str,
        array_size: Optional[int],
        init: Union[None, int, float, List],
    ):
        super().__init__(loc)
        self.type_spec = type_spec
        self.name = name
        self.array_size = array_size
        self.init = init


class StructDecl(Node):
    """``struct Name { fields };`` — fields are (TypeSpec, name) pairs."""

    def __init__(self, loc, name: str, fields: List[Tuple[TypeSpec, str]]):
        super().__init__(loc)
        self.name = name
        self.fields = fields


class Program(Node):
    """A whole MiniC translation unit."""

    def __init__(self, loc, decls: List[Node]):
        super().__init__(loc)
        self.decls = decls

    @property
    def functions(self) -> List[FuncDecl]:
        return [d for d in self.decls if isinstance(d, FuncDecl)]

    @property
    def globals(self) -> List[GlobalDecl]:
        return [d for d in self.decls if isinstance(d, GlobalDecl)]

    @property
    def structs(self) -> List[StructDecl]:
        return [d for d in self.decls if isinstance(d, StructDecl)]
