"""AST-level if-conversion.

Trimaran forms *hyperblocks*: predication converts small control-flow
diamonds into straight-line code so whole loop bodies become single
scheduling regions.  MiniC lowers to an unpredicated IR, so the
equivalent transform happens on the AST: an ``if``/``else`` whose
branches consist of scalar assignments (and branch-local declarations)
with *speculation-safe* right-hand sides is rewritten into
conditional-select assignments:

    if (c) { int t = a + b; x = t; } else { x = e; }
        -->
    { int __ifc = (c); int t__r = a + b; x = __ifc ? t__r : e; }

Speculation safety: both arms now evaluate unconditionally, so an RHS may
not load from a computed address (the branch may have guarded an
out-of-bounds index), may not divide (guarded divide-by-zero), and may
not call or allocate.  Within a branch an RHS may read branch-local
declarations (they execute unconditionally after conversion) but not
variables select-assigned earlier in the same branch — both arms must
see pre-branch values.  Branch-local declarations are alpha-renamed to
fresh names when hoisted so they cannot collide or shadow.

Run this *before* loop unrolling: converted bodies become straight-line
and therefore unrollable — the hyperblock-then-unroll pipeline of the
paper's infrastructure.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Set

from . import ast

_counter = itertools.count()


#: Statements a branch may hold, keeping the transform to genuinely
#: small diamonds.
MAX_STATEMENTS = 10


def if_convert_program(program: ast.Program) -> int:
    """If-convert eligible diamonds in place; returns conversions done."""
    count = 0
    for func in program.functions:
        total = 0
        # Iterate to a fixed point: converting an inner diamond can make
        # the enclosing one convertible.
        while True:
            done = _convert_block(func.body)
            total += done
            if done == 0:
                break
        count += total
    return count


def _convert_block(block: ast.Block) -> int:
    count = 0
    for i, stmt in enumerate(list(block.stmts)):
        count += _convert_stmt(stmt)
        if isinstance(stmt, ast.If):
            replacement = _try_convert(stmt)
            if replacement is not None:
                block.stmts[i] = replacement
                count += 1
    return count


def _convert_stmt(stmt: ast.Stmt) -> int:
    count = 0
    if isinstance(stmt, ast.Block):
        count += _convert_block(stmt)
    elif isinstance(stmt, ast.If):
        count += _convert_stmt(stmt.then)
        if stmt.orelse is not None:
            count += _convert_stmt(stmt.orelse)
    elif isinstance(stmt, (ast.While, ast.DoWhile)):
        count += _convert_stmt(stmt.body)
    elif isinstance(stmt, ast.For):
        count += _convert_stmt(stmt.body)
    return count


class _Branch:
    """Analysed branch: hoistable declarations + select assignments."""

    def __init__(self):
        self.stmts: List[ast.Stmt] = []  # decls and local assigns, in order
        self.selects: Dict[str, ast.Expr] = {}  # outer var -> new value
        self.order: List[str] = []
        self.declared: Set[str] = set()


def _try_convert(stmt: ast.If) -> Optional[ast.Stmt]:
    if not _is_safe(stmt.cond, allow_loads=True):
        return None
    then_branch = _analyse_branch(stmt.then)
    if then_branch is None:
        return None
    else_branch = _Branch()
    if stmt.orelse is not None:
        maybe = _analyse_branch(stmt.orelse)
        if maybe is None:
            return None
        else_branch = maybe
    if not then_branch.selects and not else_branch.selects:
        return None
    if then_branch.declared & else_branch.declared:
        return None  # same-named locals in both arms: renamed apart anyway,
        # but keep the analysis simple by rejecting

    loc = stmt.loc
    cond_var = f"__ifc{next(_counter)}"
    out: List[ast.Stmt] = [
        ast.VarDecl(
            loc, ast.TypeSpec(loc, "int", 0), cond_var, ast.clone(stmt.cond)
        )
    ]
    out.extend(then_branch.stmts)
    out.extend(else_branch.stmts)

    ordered = list(then_branch.order)
    ordered += [n for n in else_branch.order if n not in then_branch.selects]
    for name in ordered:
        then_val = then_branch.selects.get(name)
        else_val = else_branch.selects.get(name)
        if_true = then_val if then_val is not None else ast.Ident(loc, name)
        if_false = else_val if else_val is not None else ast.Ident(loc, name)
        select = ast.Ternary(loc, ast.Ident(loc, cond_var), if_true, if_false)
        out.append(
            ast.ExprStmt(loc, ast.Assign(loc, ast.Ident(loc, name), select))
        )
    return ast.Block(loc, out)


def _analyse_branch(stmt: ast.Stmt) -> Optional[_Branch]:
    stmts = _flatten(stmt)
    if stmts is None or len(stmts) > MAX_STATEMENTS:
        return None
    branch = _Branch()
    rename: Dict[str, str] = {}
    assigned: Set[str] = set()
    for s in stmts:
        if isinstance(s, ast.VarDecl):
            if s.type_spec.pointer_depth or s.type_spec.base not in ("int", "float"):
                return None
            init = s.init
            if init is not None:
                if not _is_safe(init, allow_loads=False):
                    return None
                if _reads_any(init, assigned):
                    return None
                init = _renamed(init, rename)
            fresh = f"{s.name}__r{next(_counter)}"
            branch.declared.add(s.name)
            rename[s.name] = fresh
            branch.stmts.append(
                ast.VarDecl(s.loc, s.type_spec, fresh, init)
            )
        elif isinstance(s, ast.ExprStmt) and isinstance(s.expr, ast.Assign):
            assign = s.expr
            if not isinstance(assign.target, ast.Ident):
                return None
            if not _is_safe(assign.value, allow_loads=False):
                return None
            if _reads_any(assign.value, assigned):
                return None
            value = _renamed(assign.value, rename)
            name = assign.target.name
            if name in branch.declared:
                # Assignment to a branch-local: executes unconditionally.
                branch.stmts.append(
                    ast.ExprStmt(
                        s.loc,
                        ast.Assign(s.loc, ast.Ident(s.loc, rename[name]), value),
                    )
                )
            else:
                if name in assigned:
                    return None
                assigned.add(name)
                branch.selects[name] = value
                branch.order.append(name)
        else:
            return None
    return branch


def _flatten(stmt: ast.Stmt) -> Optional[List[ast.Stmt]]:
    """Flatten (nested) blocks to a statement list; None on other shapes."""
    if isinstance(stmt, ast.Block):
        result: List[ast.Stmt] = []
        for s in stmt.stmts:
            if isinstance(s, ast.Block):
                inner = _flatten(s)
                if inner is None:
                    return None
                result.extend(inner)
            else:
                result.append(s)
        return result
    return [stmt]


def _is_safe(expr: ast.Expr, allow_loads: bool) -> bool:
    """No side effects and no faults under unconditional evaluation."""
    if isinstance(expr, (ast.Call, ast.Malloc, ast.Assign)):
        return False
    if isinstance(expr, ast.Binary) and expr.op in ("/", "%"):
        return False
    if not allow_loads and isinstance(expr, (ast.Index, ast.Field)):
        return False
    if not allow_loads and isinstance(expr, ast.Unary) and expr.op == "*":
        return False
    return all(_is_safe(child, allow_loads) for child in ast.children(expr))


def _reads_any(expr: ast.Expr, names: Set[str]) -> bool:
    if isinstance(expr, ast.Ident) and expr.name in names:
        return True
    return any(_reads_any(child, names) for child in ast.children(expr))


def _renamed(expr: ast.Expr, mapping: Dict[str, str]) -> ast.Expr:
    """Deep copy with identifier substitution (alpha-renaming)."""
    clone = ast.clone(expr)
    _rename_in_place(clone, mapping)
    return clone


def _rename_in_place(expr: ast.Expr, mapping: Dict[str, str]) -> None:
    if isinstance(expr, ast.Ident) and expr.name in mapping:
        expr.name = mapping[expr.name]
    for child in ast.children(expr):
        _rename_in_place(child, mapping)
