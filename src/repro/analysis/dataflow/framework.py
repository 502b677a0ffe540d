"""Generic worklist dataflow fixpoint engine.

One solver for every monotone dataflow problem in the tree: a problem
names a direction (``forward`` | ``backward``), a :class:`Lattice`, a
boundary state, and a per-block transfer function; :func:`solve` runs the
classic worklist iteration to a fixpoint with widening at cycle heads and
an optional descending (narrowing) phase afterwards.

Conventions
-----------

* ``lattice.bottom()`` is the *identity of join* — the most optimistic
  state.  For a may-analysis (liveness) that is the empty set; for a
  must-analysis (must-defined) it is the full set, because the join is
  set intersection.  Unreachable blocks keep the bottom state.
* States are treated as immutable: transfer functions return fresh
  values and never mutate their input.
* Widening points are the targets of iteration-order back edges (loop
  headers on reducible CFGs, cycle entries otherwise), so infinite- or
  tall-lattice analyses (intervals) terminate quickly.

Interprocedural clients lift entry facts down the
:class:`~repro.analysis.callgraph.CallGraph` (callers before callees:
its reversed ``bottom_up_order``) and pin the entry facts of its
``recursive`` functions to top.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Set

from ..cfg import CFG
from ...ir import Function


class Lattice:
    """Join-semilattice protocol for dataflow states.

    ``bottom`` is the identity of ``join``; ``widen`` must eventually
    stabilise any ascending chain; ``narrow`` (used only in the optional
    descending phase) must return a value between ``new`` and ``old``.
    The defaults make widening a plain join and narrowing a no-op, which
    is always sound.
    """

    def bottom(self) -> Any:
        raise NotImplementedError

    def join(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def equals(self, a: Any, b: Any) -> bool:
        return bool(a == b)

    def widen(self, old: Any, new: Any) -> Any:
        return self.join(old, new)

    def narrow(self, old: Any, new: Any) -> Any:
        return old


class SetLattice(Lattice):
    """Finite powerset lattice over ``universe``.

    ``must=False`` is the may-configuration (bottom = empty set, join =
    union: liveness, reaching defs); ``must=True`` the must-configuration
    (bottom = full universe, join = intersection: must-defined,
    available expressions).
    """

    def __init__(self, universe: FrozenSet[int], must: bool = False):
        self.universe = universe
        self.must = must

    def bottom(self) -> FrozenSet[int]:
        return self.universe if self.must else frozenset()

    def join(self, a: FrozenSet[int], b: FrozenSet[int]) -> FrozenSet[int]:
        return (a & b) if self.must else (a | b)


class DataflowProblem:
    """One analysis: direction + lattice + boundary + transfer."""

    #: ``"forward"`` (states flow entry -> exits) or ``"backward"``.
    direction: str = "forward"

    #: When true, boundary blocks take exactly the boundary state and
    #: ignore incoming edges (e.g. a must-defined entry stays at the
    #: parameter set even if a back edge targets the entry block).
    boundary_is_absolute: bool = False

    def __init__(self, lattice: Lattice):
        self.lattice = lattice

    def boundary(self) -> Any:
        """State at the entry block (forward) / every exit (backward)."""
        raise NotImplementedError

    def transfer(self, block: Any, state: Any) -> Any:
        """The block's effect on an incoming state (must not mutate it)."""
        raise NotImplementedError

    def edge_transfer(self, src: Any, dst_name: str, state: Any) -> Any:
        """Refine the state flowing along one edge before it is joined.

        ``src`` is the input-side block object in the problem's direction
        (a predecessor for forward problems, a successor for backward
        ones) and ``state`` its out state.  Overrides may sharpen the
        state per target — branch refinement — or return the lattice
        bottom to mark the edge infeasible.  Must not mutate ``state``.
        """
        return state


class DataflowSolution:
    """Fixpoint states per block plus solver telemetry.

    ``in_states`` and ``out_states`` hold the reachable blocks in
    iteration order: reverse postorder for a forward problem.
    """

    def __init__(
        self,
        problem: DataflowProblem,
        in_states: Dict[str, Any],
        out_states: Dict[str, Any],
        iterations: int,
        widened: Set[str],
    ):
        self.problem = problem
        self.in_states = in_states
        self.out_states = out_states
        self.iterations = iterations
        self.widened = widened

    def in_of(self, block: str) -> Any:
        """State *entering* the block in the problem's direction (for a
        backward problem that is the state at the block's end)."""
        if block in self.in_states:
            return self.in_states[block]
        return self.problem.lattice.bottom()

    def out_of(self, block: str) -> Any:
        if block in self.out_states:
            return self.out_states[block]
        return self.problem.lattice.bottom()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<dataflow {self.problem.direction}: "
            f"{len(self.in_states)} blocks, {self.iterations} iterations>"
        )


#: Visits a widening point (a loop header) tolerates before its state is
#: widened.
WIDEN_AFTER = 3


def solve(
    func: Function,
    cfg: CFG,
    problem: DataflowProblem,
    narrow_passes: int = 0,
) -> DataflowSolution:
    """Run ``problem`` over one function's reachable blocks to a fixpoint.

    A widening point widens after :data:`WIDEN_AFTER` visits;
    ``narrow_passes`` descending sweeps run after the ascending fixpoint
    (0 disables narrowing).
    """
    lattice = problem.lattice
    forward = problem.direction == "forward"
    rpo = cfg.reverse_postorder()
    order = rpo if forward else list(reversed(rpo))
    index = {name: i for i, name in enumerate(order)}
    reachable = set(rpo)

    def inputs_of(name: str) -> List[str]:
        edges = cfg.predecessors(name) if forward else cfg.successors(name)
        return [p for p in edges if p in reachable]

    def outputs_of(name: str) -> List[str]:
        edges = cfg.successors(name) if forward else cfg.predecessors(name)
        return [s for s in edges if s in reachable]

    if forward:
        boundary_blocks = {cfg.entry}
    else:
        boundary_blocks = {b for b in rpo if not cfg.successors(b)}

    # Targets of iteration-order back edges: loop headers on reducible
    # CFGs, cycle entries otherwise.  These are the widening points.
    widen_points: Set[str] = set()
    for src in order:
        for dst in outputs_of(src):
            if index[dst] <= index[src]:
                widen_points.add(dst)

    in_states: Dict[str, Any] = {n: lattice.bottom() for n in order}
    out_states: Dict[str, Any] = {n: lattice.bottom() for n in order}
    visits: Dict[str, int] = {n: 0 for n in order}
    widened: Set[str] = set()

    def joined_input(name: str) -> Any:
        if name in boundary_blocks:
            state = problem.boundary()
            if problem.boundary_is_absolute:
                return state
        else:
            state = lattice.bottom()
        for src in inputs_of(name):
            state = lattice.join(
                state,
                problem.edge_transfer(func.blocks[src], name, out_states[src]),
            )
        return state

    pending: Set[str] = set(order)
    iterations = 0
    while pending:
        name = min(pending, key=index.__getitem__)
        pending.discard(name)
        iterations += 1
        state = joined_input(name)
        visits[name] += 1
        if name in widen_points and visits[name] > WIDEN_AFTER:
            state = lattice.widen(in_states[name], state)
            widened.add(name)
        if visits[name] > 1 and lattice.equals(state, in_states[name]):
            continue
        in_states[name] = state
        new_out = problem.transfer(func.blocks[name], state)
        if visits[name] > 1 and lattice.equals(new_out, out_states[name]):
            continue
        out_states[name] = new_out
        pending.update(outputs_of(name))

    # Optional descending phase: recompute without widening, narrowing
    # each state against the ascending result (recovers precision that
    # widening threw away; sound because narrow stays above the new value).
    for _ in range(narrow_passes):
        changed = False
        for name in order:
            state = lattice.narrow(in_states[name], joined_input(name))
            if not lattice.equals(state, in_states[name]):
                in_states[name] = state
                changed = True
            new_out = problem.transfer(func.blocks[name], state)
            if not lattice.equals(new_out, out_states[name]):
                out_states[name] = new_out
                changed = True
        if not changed:
            break

    return DataflowSolution(problem, in_states, out_states, iterations, widened)
