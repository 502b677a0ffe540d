"""Static access-region analysis: trip counts, execution bounds, regions.

Three layers, each feeding the next:

* :class:`TripCounts` — per natural loop, a sound upper bound on header
  executions per loop entry, derived from the exit compare, the
  induction-variable step, and the interval analysis' preheader facts
  (``None`` when no sound bound exists);
* :class:`ExecutionBounds` — per function and basic block, a sound upper
  bound on executions across the whole program run (``inf`` for
  recursion, irreducible control flow, or unbounded loops), plus a
  finite heuristic *estimate* mirroring the classic ``10**depth`` static
  frequency used when a bound is infinite;
* :class:`AccessRegionAnalysis` — per memory op, a static access-weight
  bound (the op's block bound) and per ``(op, object)`` the touched byte
  region, computed by evaluating the block's affine address form with
  the block-entry register intervals (``None`` region = whole object).

These are the static counterparts of the dynamic profiler's block counts,
op/object counts, and access offsets — :mod:`.staticprofile` packages
them as a drop-in :class:`~repro.profiler.profiledata.ProfileData`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from .interval import (
    INT32_MAX,
    INT32_MIN,
    EnvLattice,
    Interval,
    IntervalAnalysis,
    eval_value,
)
from ..affine import AffineAddresses, coalesce_intervals
from ..callgraph import CallGraph
from ..cfg import CFG
from ..dominators import DominatorTree
from ..loops import Loop, LoopInfo
from ...ir import BasicBlock, Constant, Function, Opcode, Operation, VirtualRegister

if TYPE_CHECKING:
    from ..memo import Analyses

#: Heuristic trip count used when no sound bound exists (matches the
#: 10**depth static frequency estimator in analysis/loops.py).
DEFAULT_TRIP_ESTIMATE = 10

#: Multiplier applied to the entry estimate of recursive functions.
RECURSION_ESTIMATE_FACTOR = 10

#: Ceiling for every finite estimate (weights, not cycle counts).
ESTIMATE_CAP = 10**9

_UPPER = {Opcode.CMPLT: 0, Opcode.CMPLE: 1}  # continue iv < / <= bound
_LOWER = {Opcode.CMPGT: 0, Opcode.CMPGE: 1}  # continue iv > / >= bound
_SWAP = {
    Opcode.CMPLT: Opcode.CMPGT,
    Opcode.CMPLE: Opcode.CMPGE,
    Opcode.CMPGT: Opcode.CMPLT,
    Opcode.CMPGE: Opcode.CMPLE,
}
_NEGATE = {
    Opcode.CMPLT: Opcode.CMPGE,
    Opcode.CMPLE: Opcode.CMPGT,
    Opcode.CMPGT: Opcode.CMPLE,
    Opcode.CMPGE: Opcode.CMPLT,
}


class TripCounts:
    """Sound per-loop iteration bounds for one function.

    A bound counts *header executions per loop entry* and is ``None``
    when the loop shape defeats the analysis: no recognised exit
    compare, induction steps outside the header/latch, mixed step
    directions, a loop-variant bound, or possible 32-bit wraparound.
    Bounds are deliberately slack (a ``+2`` absorbs pre-/post-increment
    test placement) — clients need containment, not tightness.
    """

    def __init__(
        self,
        func: Function,
        cfg: CFG,
        loops: LoopInfo,
        intervals: IntervalAnalysis,
    ):
        self.func = func
        self.cfg = cfg
        self.loops = loops
        self._intervals = intervals
        self.trips: Dict[Loop, Optional[int]] = {
            loop: self._analyze_loop(loop) for loop in loops.loops
        }

    def trip_of(self, loop: Loop) -> Optional[int]:
        return self.trips.get(loop)

    # -- per-loop analysis ---------------------------------------------------

    def _analyze_loop(self, loop: Loop) -> Optional[int]:
        preds = self.cfg.predecessors(loop.header)
        outside = [p for p in preds if p not in loop.body]
        latches = [p for p in preds if p in loop.body]
        if not outside or not latches:
            return None
        lattice = EnvLattice()
        init_env = None
        for pred in outside:
            init_env = lattice.join(
                init_env, self._intervals.env_at_exit(self.func.name, pred)
            )
        if init_env is None:
            return 0  # the loop is never entered
        candidates = [loop.header]
        if len(latches) == 1 and latches[0] != loop.header:
            candidates.append(latches[0])
        best: Optional[int] = None
        for block_name in candidates:
            bound = self._exit_bound(loop, block_name, latches, init_env)
            if bound is not None and (best is None or bound < best):
                best = bound
        return best

    def _exit_bound(
        self,
        loop: Loop,
        block_name: str,
        latches: List[str],
        init_env: Dict[int, Interval],
    ) -> Optional[int]:
        block = self.func.blocks[block_name]
        if not block.ops:
            return None
        term = block.ops[-1]
        if term.opcode is not Opcode.CBR:
            return None
        in_body = [t in loop.body for t in term.targets]
        if in_body[0] == in_body[1]:
            return None  # both targets inside (or outside) the loop
        cond = term.srcs[0]
        if not isinstance(cond, VirtualRegister):
            return None
        cmp_op = self._defining_compare(block, term, cond.vid)
        if cmp_op is None:
            return None
        # Normalise to a continue-condition "lhs REL rhs": the branch
        # stays in the loop when targets[0] is inside and the condition
        # is non-zero, or targets[1] is inside and the condition is zero.
        code = cmp_op.opcode
        if in_body[1]:
            code = _NEGATE.get(code)
            if code is None:
                return None
        # The bound side need not be loop-invariant: its fixpoint
        # interval at the compare over-approximates its value on every
        # iteration (this covers bounds re-loaded from constant globals
        # inside the header).
        cmp_env = self._intervals.env_before_op(self.func.name, block, cmp_op)
        if cmp_env is None:
            return None
        a, b = cmp_op.srcs[0], cmp_op.srcs[1]
        best: Optional[int] = None
        for iv_val, bound_val, c in ((a, b, code), (b, a, _SWAP[code])):
            if not isinstance(iv_val, VirtualRegister):
                continue
            trip = self._candidate_bound(
                loop, latches, init_env, cmp_env, iv_val, bound_val, c
            )
            if trip is not None and (best is None or trip < best):
                best = trip
        return best

    def _candidate_bound(
        self,
        loop: Loop,
        latches: List[str],
        init_env: Dict[int, Interval],
        cmp_env: Dict[int, Interval],
        iv: VirtualRegister,
        bound,
        code: Opcode,
    ) -> Optional[int]:
        step = self._induction_step(loop, iv, latches)
        if step is None:
            return None
        direction, per_iter_min, per_iter_abs = step
        init = init_env.get(iv.vid, Interval.top())
        bound_iv = eval_value(bound, cmp_env)
        # The excursion term absorbs increments that run before the exit
        # test inside an iteration (the test may observe a value up to
        # one iteration's movement behind the per-entry progress).
        if code in _UPPER and direction > 0:
            u_eff = bound_iv.hi + _UPPER[code] - 1
            if u_eff + per_iter_abs > INT32_MAX:
                return None  # the induction variable may wrap
            if init.lo - per_iter_abs < INT32_MIN:
                return None
            span = max(0, u_eff - init.lo + per_iter_abs)
        elif code in _LOWER and direction < 0:
            l_eff = bound_iv.lo - _LOWER[code] + 1
            if l_eff - per_iter_abs < INT32_MIN:
                return None
            if init.hi + per_iter_abs > INT32_MAX:
                return None
            span = max(0, init.hi - l_eff + per_iter_abs)
        else:
            return None
        return span // per_iter_min + 2

    def _defining_compare(
        self, block: BasicBlock, term: Operation, vid: int
    ) -> Optional[Operation]:
        for op in reversed(block.ops):
            if op is term:
                continue
            if op.dest is not None and op.dest.vid == vid:
                return op if op.opcode in _SWAP else None
        return None

    def _induction_step(
        self, loop: Loop, iv: VirtualRegister, latches: List[str]
    ) -> Optional[Tuple[int, int, int]]:
        """Validate ``iv`` as a strict-progress induction variable.

        Every in-loop definition of ``iv`` must live in the header or a
        latch (blocks executed exactly/at most once per iteration) and
        amount to ``iv = iv +/- const`` — possibly through intermediate
        registers (``t = iv + 1; iv = t``).  Returns ``(direction, min
        per-iteration net progress, max per-iteration excursion)``.
        """
        allowed = {loop.header, *latches}
        deltas: Dict[str, int] = {}
        movement: Dict[str, int] = {}
        for name in loop.body:
            block = self.func.blocks.get(name)
            if block is None:
                continue
            if not any(
                op.dest is not None and op.dest.vid == iv.vid
                for op in block.ops
            ):
                continue
            if name not in allowed:
                return None
            step = _block_step(block, iv.vid)
            if step is None:
                return None
            deltas[name], movement[name] = step
        # One iteration passes the header once and exactly one latch; a
        # self-loop's iteration is the header alone.
        head_delta = deltas.get(loop.header, 0)
        head_move = movement.get(loop.header, 0)
        nets: List[int] = []
        moves: List[int] = []
        for latch in latches:
            if latch == loop.header:
                nets.append(head_delta)
                moves.append(head_move)
            else:
                nets.append(head_delta + deltas.get(latch, 0))
                moves.append(head_move + movement.get(latch, 0))
        if all(n > 0 for n in nets):
            direction = 1
        elif all(n < 0 for n in nets):
            direction = -1
        else:
            return None
        return direction, min(abs(n) for n in nets), max(moves)


def _block_step(block: BasicBlock, vid: int) -> Optional[Tuple[int, int]]:
    """Net constant delta of register ``vid`` across one block.

    Tracks every register whose value is provably ``iv_entry + k`` (the
    frontend emits ``t = iv + 1; iv = mov t``); any definition of ``iv``
    outside that language makes the block unanalysable.  Returns ``(net
    delta, max absolute excursion of iv within the block)``.
    """
    rel: Dict[int, int] = {vid: 0}
    excursion = 0
    for op in block.ops:
        dest = op.dest
        if dest is None:
            continue
        form: Optional[int] = None
        if op.opcode in (Opcode.MOV, Opcode.ICMOVE):
            src = op.srcs[0]
            if isinstance(src, VirtualRegister) and src.vid in rel:
                form = rel[src.vid]
        elif op.opcode is Opcode.ADD:
            a, b = op.srcs[0], op.srcs[1]
            if isinstance(a, VirtualRegister) and a.vid in rel and _is_int(b):
                form = rel[a.vid] + b.value
            elif isinstance(b, VirtualRegister) and b.vid in rel and _is_int(a):
                form = rel[b.vid] + a.value
        elif op.opcode is Opcode.SUB:
            a, b = op.srcs[0], op.srcs[1]
            if isinstance(a, VirtualRegister) and a.vid in rel and _is_int(b):
                form = rel[a.vid] - b.value
        if dest.vid == vid:
            if form is None:
                return None
            rel[vid] = form
            excursion = max(excursion, abs(form))
        elif form is None:
            rel.pop(dest.vid, None)
        else:
            rel[dest.vid] = form
    return rel[vid], excursion


def _is_int(v) -> bool:
    return isinstance(v, Constant) and isinstance(v.value, int)


class ExecutionBounds:
    """Whole-program execution bounds per function entry and basic block.

    ``bound`` values are sound upper limits (``math.inf`` when recursion,
    irreducible control flow, or an unbounded loop defeats the
    analysis); ``estimate`` values are the finite stand-ins fed to the
    static profile (``DEFAULT_TRIP_ESTIMATE`` per unbounded loop level,
    ``RECURSION_ESTIMATE_FACTOR`` for recursion, capped at
    ``ESTIMATE_CAP``).  Functions unreachable from ``main`` are bounded
    by zero: calls are direct and function references are not data.

    The loop structure rests on ``intervals`` and on the CFGs, dominator
    trees and call graph of ``analyses``, the module's
    :class:`~repro.analysis.memo.Analyses` memo.
    """

    def __init__(self, analyses: "Analyses", intervals: IntervalAnalysis):
        self.module = analyses.module
        self.intervals = intervals
        self.loopinfos: Dict[str, LoopInfo] = {}
        self.tripcounts: Dict[str, TripCounts] = {}
        self._irreducible: Dict[str, bool] = {}
        self.entry_bounds: Dict[str, float] = {}
        self.entry_estimates: Dict[str, int] = {}
        for func in self.module:
            if not func.blocks:
                continue
            cfg = analyses.cfg(func)
            domtree = analyses.dominators(func)
            loops = LoopInfo(cfg, domtree)
            self.loopinfos[func.name] = loops
            self.tripcounts[func.name] = TripCounts(
                func, cfg, loops, self.intervals
            )
            self._irreducible[func.name] = _has_irreducible_edge(cfg, domtree)
        self._solve_entries(analyses.callgraph())

    # -- per-block local factors ---------------------------------------------

    def _local(self, fname: str, block: str) -> Tuple[float, int]:
        """(sound, estimate) multiplier for one block inside its function."""
        if self._irreducible.get(fname):
            return math.inf, ESTIMATE_CAP
        loops = self.loopinfos.get(fname)
        trips = self.tripcounts.get(fname)
        if loops is None or trips is None:
            return 1.0, 1
        sound: float = 1.0
        est = 1
        for loop in loops.loops:
            if not loop.contains(block):
                continue
            trip = trips.trip_of(loop)
            if trip is None:
                sound = math.inf
                est = min(est * DEFAULT_TRIP_ESTIMATE, ESTIMATE_CAP)
            else:
                sound *= trip
                est = min(est * max(trip, 1), ESTIMATE_CAP)
        return sound, est

    # -- interprocedural entry bounds ----------------------------------------

    def _solve_entries(self, callgraph: CallGraph) -> None:
        recursive = callgraph.recursive()
        # Callers first: the position of a call edge in this order tells
        # a cycle-closing edge apart.
        order = [
            n
            for n in reversed(callgraph.bottom_up_order())
            if n in self.module.functions
        ]
        position = {name: i for i, name in enumerate(order)}
        bounds: Dict[str, float] = {n: 0.0 for n in order}
        estimates: Dict[str, float] = {n: 0.0 for n in order}
        if "main" in bounds:
            bounds["main"] = 1.0
            estimates["main"] = 1.0
        for name in recursive:
            if name in bounds:
                bounds[name] = math.inf
        for name in order:
            func = self.module.functions[name]
            if not func.blocks:
                continue
            for block in func:
                for op in block.ops:
                    if not op.is_call():
                        continue
                    callee = op.attrs.get("callee")
                    if callee not in bounds:
                        continue
                    sound, est = self._local(name, block.name)
                    if callee not in recursive:
                        bounds[callee] += bounds[name] * sound
                    # Estimates ignore cycle-closing edges (callee already
                    # processed); recursion is priced by a flat factor below.
                    if position[callee] > position[name]:
                        estimates[callee] += estimates[name] * est
        for name in order:
            est = estimates[name]
            if name in recursive:
                est = max(est, 1.0) * RECURSION_ESTIMATE_FACTOR
            self.entry_estimates[name] = int(min(est, ESTIMATE_CAP))
            self.entry_bounds[name] = bounds[name]

    # -- queries -------------------------------------------------------------

    def entry_bound(self, fname: str) -> float:
        return self.entry_bounds.get(fname, 0.0)

    def block_bound(self, fname: str, block: str) -> float:
        """Sound upper bound on executions of ``block`` per program run."""
        sound, _ = self._local(fname, block)
        return self.entry_bound(fname) * sound

    def block_estimate(self, fname: str, block: str) -> int:
        _, est = self._local(fname, block)
        return int(min(self.entry_estimates.get(fname, 0) * est, ESTIMATE_CAP))


def _has_irreducible_edge(cfg: CFG, domtree: DominatorTree) -> bool:
    """A retreating edge whose target does not dominate its source means
    a cycle natural-loop detection cannot see — all bounds become inf."""
    rpo = cfg.reverse_postorder()
    index = {n: i for i, n in enumerate(rpo)}
    for src in rpo:
        for dst in cfg.successors(src):
            if index.get(dst, -1) <= index[src] and not domtree.dominates(dst, src):
                return True
    return False


#: A touched byte region: half-open ``[lo, hi)``; ``None`` = whole object.
Region = Optional[Tuple[int, int]]


class AccessRegionAnalysis:
    """Static access weights and byte regions for every memory op.

    For each LOAD/STORE the access weight bound is the op's block bound.
    The touched region per object comes from the block's affine address
    form: when the form is ``@g + sum(c_i * in_i) + k`` for exactly the
    global the op may access, the live-in register intervals give a byte
    interval, clamped to the object; any mismatch (heap objects, opaque
    address atoms, out-of-bounds math) falls back to the whole object,
    which is always a sound containment answer.

    The objects an op may access come from ``pointsto`` (a solved
    points-to result) or, when it is ``None``, from the ops'
    ``mem_objects`` annotations; CFGs and block affine forms come from
    ``analyses``, the module's :class:`~repro.analysis.memo.Analyses`
    memo.
    """

    def __init__(self, analyses: "Analyses", bounds: ExecutionBounds, pointsto):
        self.module = analyses.module
        self.bounds = bounds
        self._pointsto = pointsto
        #: op uid -> sound execution bound (may be math.inf)
        self.op_weight_bounds: Dict[int, float] = {}
        #: op uid -> finite heuristic weight for the static profile
        self.op_weight_estimates: Dict[int, int] = {}
        #: op uid -> {object id -> Region}
        self.op_regions: Dict[int, Dict[str, Region]] = {}
        #: op uid -> (function name, block name)
        self.op_location: Dict[int, Tuple[str, str]] = {}
        self._analyze(analyses)

    def _objects_for(self, fname: str, op: Operation) -> FrozenSet[str]:
        if self._pointsto is not None:
            return self._pointsto.objects_for_op(fname, op)
        return op.mem_objects()

    def _analyze(self, analyses: "Analyses") -> None:
        intervals = self.bounds.intervals
        for func in self.module:
            if not func.blocks:
                continue
            reachable = analyses.cfg(func).reachable()
            for block in func:
                if block.name not in reachable:
                    continue
                affine = analyses.affine(func, block)
                entry_env = intervals.env_at_entry(func.name, block.name)
                for op in block.ops:
                    if not op.is_memory_access():
                        continue
                    self.op_location[op.uid] = (func.name, block.name)
                    self.op_weight_bounds[op.uid] = self.bounds.block_bound(
                        func.name, block.name
                    )
                    self.op_weight_estimates[op.uid] = self.bounds.block_estimate(
                        func.name, block.name
                    )
                    regions: Dict[str, Region] = {}
                    for obj in sorted(self._objects_for(func.name, op)):
                        regions[obj] = self._region_of(
                            op, obj, affine, entry_env
                        )
                    self.op_regions[op.uid] = regions

    def _region_of(
        self,
        op: Operation,
        obj: str,
        affine: AffineAddresses,
        entry_env: Optional[Dict[int, Interval]],
    ) -> Region:
        if not obj.startswith("g:"):
            return None  # heap objects: size is dynamic, claim everything
        symbol = obj[2:]
        var = self.module.globals.get(symbol)
        if var is None:
            return None
        size = var.size()
        form = affine.address_of.get(op.uid)
        if form is None:
            return None
        base = form.terms.get(("g", symbol))
        if base != 1 or entry_env is None:
            return None
        # Offsets are evaluated in unbounded integers: the affine layer
        # models address arithmetic without wraparound (a program whose
        # address math wraps faults in the interpreter before profiling).
        off_lo, off_hi = form.const, form.const
        for atom, coeff in form.terms.items():
            if atom == ("g", symbol):
                continue
            iv = self._atom_interval(atom, entry_env)
            if iv.is_top():
                return None
            lo, hi = iv.lo * coeff, iv.hi * coeff
            if coeff < 0:
                lo, hi = hi, lo
            off_lo, off_hi = off_lo + lo, off_hi + hi
        width = affine.width_of.get(op.uid, 1)
        lo = max(off_lo, 0)
        hi = min(off_hi + width, size)
        if lo >= hi:
            return None  # provably out of bounds: stay conservative
        return (lo, hi)

    @staticmethod
    def _atom_interval(atom, entry_env: Dict[int, Interval]) -> Interval:
        # Live-in register atoms are versioned as (("in", vid), n); their
        # value at first read equals the block-entry value.
        if (
            isinstance(atom, tuple)
            and len(atom) == 2
            and isinstance(atom[0], tuple)
            and len(atom[0]) == 2
            and atom[0][0] == "in"
        ):
            return entry_env.get(atom[0][1], Interval.top())
        return Interval.top()

    # -- aggregate queries ---------------------------------------------------

    def object_intervals(self) -> Dict[str, Optional[List[Tuple[int, int]]]]:
        """Per object: every per-op touched interval, *not* coalesced, or
        ``None`` when any access claims the whole object."""
        raw: Dict[str, Optional[List[Tuple[int, int]]]] = {}
        for regions in self.op_regions.values():
            for obj, region in regions.items():
                if obj in raw and raw[obj] is None:
                    continue
                if region is None:
                    raw[obj] = None
                else:
                    raw.setdefault(obj, []).append(region)  # type: ignore[union-attr]
        return raw

    def object_regions(self) -> Dict[str, Optional[List[Tuple[int, int]]]]:
        """:meth:`object_intervals`, each object's intervals coalesced."""
        return {
            obj: (None if spans is None else coalesce_intervals(spans))
            for obj, spans in self.object_intervals().items()
        }


__all__ = [
    "AccessRegionAnalysis",
    "DEFAULT_TRIP_ESTIMATE",
    "ESTIMATE_CAP",
    "ExecutionBounds",
    "Region",
    "TripCounts",
]
