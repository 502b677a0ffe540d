"""AST-level loop unrolling.

The paper's compiler (Trimaran) schedules *regions* — superblocks with
substantial instruction-level parallelism.  Our regions are basic blocks,
so without unrolling a 2-cluster machine sees almost no ILP in the tiny
loop bodies of the kernels and every partitioning question degenerates.
Unrolling canonical counted loops restores the region-level ILP the
paper's infrastructure had.

The transform rewrites innermost, straight-line, canonical ``for`` loops

    for (i = e0; i < e1; i = i + c) BODY

into a main loop executing ``factor`` copies per test plus a remainder:

    {
        i = e0;
        for (; i + (factor-1)*c < e1; ) {
            { BODY } i = i + c;   (x factor)
        }
        while (i < e1) { { BODY } i = i + c; }
    }

which is semantically equivalent for any trip count provided the bound is
pure, the body is straight-line, and the body never writes ``i`` — all
checked before rewriting.  Each body copy is wrapped in its own block so
local declarations keep their scoping.

``factor`` is the *maximum* unroll factor: a body is unrolled less, down
to 2, so the unrolled region stays near :data:`TARGET_STMTS` statements
(mirroring the code-growth budgets of production unrollers), and a body
of more than :data:`MAX_BODY_STMTS` statements is left alone.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import ast


#: Largest loop body (in statements) that is unrolled at all.
MAX_BODY_STMTS = 64

#: Statement count the adaptive factor keeps an unrolled body near.
TARGET_STMTS = 48


def unroll_program(program: ast.Program, factor: int = 4) -> int:
    """Unroll eligible loops in place by at most ``factor``; returns the
    number of loops unrolled."""
    if factor < 2:
        raise ValueError("unroll factor must be >= 2")
    count = 0
    for func in program.functions:
        count += _unroll_block(func.body, factor)
    return count


def _factor_for(factor: int, body_stmts: int) -> int:
    """Adaptive factor: halve until the unrolled body fits the target."""
    while factor > 2 and body_stmts * factor > TARGET_STMTS:
        factor //= 2
    return factor


def _unroll_block(block: ast.Block, factor: int) -> int:
    count = 0
    for i, stmt in enumerate(list(block.stmts)):
        count += _unroll_stmt(stmt, factor)
        if isinstance(stmt, ast.For):
            replacement = _try_unroll(stmt, factor)
            if replacement is not None:
                block.stmts[i] = replacement
                count += 1
    return count


def _unroll_stmt(stmt: ast.Stmt, factor: int) -> int:
    """Recurse into nested statements (the loop itself is handled by the
    caller so the innermost loops are rewritten first)."""
    count = 0
    if isinstance(stmt, ast.Block):
        count += _unroll_block(stmt, factor)
    elif isinstance(stmt, ast.If):
        count += _unroll_stmt(stmt.then, factor)
        if stmt.orelse is not None:
            count += _unroll_stmt(stmt.orelse, factor)
    elif isinstance(stmt, (ast.While, ast.DoWhile)):
        count += _unroll_stmt(stmt.body, factor)
    elif isinstance(stmt, ast.For):
        count += _unroll_stmt(stmt.body, factor)
    return count


# ---------------------------------------------------------------------------
# Canonical-form analysis
# ---------------------------------------------------------------------------


def _try_unroll(loop: ast.For, factor: int) -> Optional[ast.Stmt]:
    shape = _canonical_shape(loop)
    if shape is None:
        return None
    var, limit, step_c, cmp_op = shape
    body = loop.body
    if not _is_straight_line(body, var):
        return None
    body_stmts = _stmt_count(body)
    if body_stmts > MAX_BODY_STMTS:
        return None
    if not _is_pure(limit, forbid_var=var):
        return None

    factor = _factor_for(factor, body_stmts)
    loc = loop.loc

    def ident() -> ast.Ident:
        return ast.Ident(loc, var)

    def advance() -> ast.Stmt:
        return ast.ExprStmt(
            loc,
            ast.Assign(
                loc, ident(), ast.Binary(loc, "+", ident(), ast.IntLit(loc, step_c))
            ),
        )

    def body_copy() -> ast.Stmt:
        clone = ast.clone(body)
        return clone if isinstance(clone, ast.Block) else ast.Block(loc, [clone])

    # for (; i + (factor-1)*c < e1; ) { BODY i+=c  (x factor) }
    guard = ast.Binary(
        loc,
        cmp_op,
        ast.Binary(loc, "+", ident(), ast.IntLit(loc, (factor - 1) * step_c)),
        ast.clone(limit),
    )
    main_stmts: List[ast.Stmt] = []
    for _ in range(factor):
        main_stmts.append(body_copy())
        main_stmts.append(advance())
    main_loop = ast.For(loc, None, guard, None, ast.Block(loc, main_stmts))

    remainder_cond = ast.Binary(loc, cmp_op, ident(), ast.clone(limit))
    remainder = ast.While(
        loc, remainder_cond, ast.Block(loc, [body_copy(), advance()])
    )

    init = loop.init if loop.init is not None else None
    stmts: List[ast.Stmt] = []
    if init is not None:
        stmts.append(init)
    stmts.append(main_loop)
    stmts.append(remainder)
    return ast.Block(loc, stmts)


def _canonical_shape(loop: ast.For) -> Optional[Tuple[str, ast.Expr, int, str]]:
    """Match ``for (i = e0; i <[=] e1; i = i + c)`` (c > 0) or the
    decreasing mirror ``for (i = e0; i >[=] e1; i = i - c)``; returns
    (var, limit, signed_step, cmp)."""
    if loop.cond is None or loop.step is None:
        return None
    # Induction variable from the init clause.
    var: Optional[str] = None
    if isinstance(loop.init, ast.VarDecl):
        if loop.init.init is None:
            return None
        var = loop.init.name
    elif isinstance(loop.init, ast.ExprStmt) and isinstance(
        loop.init.expr, ast.Assign
    ):
        target = loop.init.expr.target
        if isinstance(target, ast.Ident):
            var = target.name
    if var is None:
        return None
    # Condition: i <op> e1 with the variable on the left.
    cond = loop.cond
    if not (
        isinstance(cond, ast.Binary)
        and cond.op in ("<", "<=", ">", ">=")
        and isinstance(cond.lhs, ast.Ident)
        and cond.lhs.name == var
    ):
        return None
    increasing = cond.op in ("<", "<=")
    # Step: i = i + c / i = c + i (increasing) or i = i - c (decreasing).
    step = loop.step
    if not (
        isinstance(step, ast.Assign)
        and isinstance(step.target, ast.Ident)
        and step.target.name == var
        and isinstance(step.value, ast.Binary)
        and step.value.op in ("+", "-")
    ):
        return None
    lhs, rhs = step.value.lhs, step.value.rhs
    c: Optional[int] = None
    if isinstance(lhs, ast.Ident) and lhs.name == var and isinstance(rhs, ast.IntLit):
        c = rhs.value if step.value.op == "+" else -rhs.value
    elif (
        step.value.op == "+"
        and isinstance(rhs, ast.Ident)
        and rhs.name == var
        and isinstance(lhs, ast.IntLit)
    ):
        c = lhs.value
    if c is None:
        return None
    if increasing and c < 1:
        return None
    if not increasing and c > -1:
        return None
    return var, cond.rhs, c, cond.op


# ---------------------------------------------------------------------------
# Safety scans
# ---------------------------------------------------------------------------


def _is_straight_line(stmt: ast.Stmt, var: str) -> bool:
    """Only ExprStmt / VarDecl statements, no writes to the induction var."""
    if isinstance(stmt, ast.Block):
        return all(_is_straight_line(s, var) for s in stmt.stmts)
    if isinstance(stmt, ast.VarDecl):
        if stmt.name == var:
            return False
        return stmt.init is None or not _writes_var(stmt.init, var)
    if isinstance(stmt, ast.ExprStmt):
        return not _writes_var(stmt.expr, var)
    return False


def _writes_var(expr: ast.Expr, var: str) -> bool:
    if isinstance(expr, ast.Assign):
        target = expr.target
        if isinstance(target, ast.Ident) and target.name == var:
            return True
        return _writes_var(target, var) or _writes_var(expr.value, var)
    for child in ast.children(expr):
        if _writes_var(child, var):
            return True
    return False


def _is_pure(expr: ast.Expr, forbid_var: Optional[str] = None) -> bool:
    """No calls, allocations or assignments; optionally no reference to a
    variable (the bound must not depend on the induction variable)."""
    if isinstance(expr, (ast.Call, ast.Malloc, ast.Assign)):
        return False
    if (
        forbid_var is not None
        and isinstance(expr, ast.Ident)
        and expr.name == forbid_var
    ):
        return False
    return all(_is_pure(child, forbid_var) for child in ast.children(expr))


def _stmt_count(stmt: ast.Stmt) -> int:
    if isinstance(stmt, ast.Block):
        return sum(_stmt_count(s) for s in stmt.stmts)
    return 1
