"""Precision-tiered interprocedural points-to analysis.

The paper uses sophisticated IPA (Nystrom et al.) to assign each static
global and each ``malloc()`` call site a unique object id, and to mark
every load and store with the objects it can access.  This module computes
those annotations for MiniC IR with a family of inclusion-based solvers of
increasing precision, all behind one :class:`PointsToResult` interface:

``andersen``
    The classic Andersen baseline: flow-, context- and field-insensitive.
``field``
    Field-sensitive: pointer facts carry a byte offset into their target
    object, and every object gets one *content* node per constant-offset
    field/array region instead of a single merged summary.  Offsets are
    classified with the block-local affine forms of
    :mod:`repro.analysis.affine` (so ``p + 4*k`` chains resolve), and
    statically-observed access intervals are coalesced into regions so
    overlapping/adjacent accesses share a node.
``cs``
    Call-site context-sensitive (1-CFA) *and* field-sensitive: every
    function's constraints are generated once as a summary template and
    instantiated per calling context, bottom-up over the call graph.
    Contexts are immediate call sites (k = 1, truncating), so recursion
    stays finite.

Each sharper tier is a *refinement*: for every memory operation,
``pts_cs(op) ⊆ pts_field(op) ⊆ pts_andersen(op)`` at data-object
granularity.  The :mod:`repro.lint.ptdiff` differ checks this statically
and against the profiler's dynamic under-approximation oracle.

Abstract objects (identical across every tier — consumers never see
offsets or contexts):

* ``g:<name>`` — one per global variable;
* ``h:<site>`` — one per ``MALLOC`` allocation site.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Set, Tuple

from ..ir import Function, GlobalAddress, Module, Opcode, Operation, VirtualRegister
from .affine import coalesce_intervals

if TYPE_CHECKING:
    from .memo import Analyses

#: Precision tiers, coarsest first — the refinement lattice order used by
#: the ``ptdiff`` lint pass and the ``--pointsto`` CLI knob.
TIERS: Tuple[str, ...] = ("andersen", "field", "cs")


#: Object-id constructors (shared with repro.analysis.objects).
def global_object_id(name: str) -> str:
    return f"g:{name}"


def heap_object_id(site: str) -> str:
    return f"h:{site}"


class PointsToStats:
    """Precision/observability counters for one solved tier.

    Set-size metrics describe the per-memory-op target sets (the thing the
    access-pattern merge and the memory locks consume); solver metrics
    record what the fixpoint cost.  ``mayalias_pairs`` counts distinct
    object pairs some single memory op may both touch — exactly the pairs
    the access-pattern merge will fuse.
    """

    def __init__(
        self,
        tier: str,
        memory_ops: int,
        annotated_ops: int,
        empty_ops: int,
        avg_set_size: float,
        max_set_size: int,
        singleton_ratio: float,
        mayalias_pairs: int,
        solver_iterations: int,
        solve_seconds: float,
        nodes: int,
        contexts: int,
        content_regions: int,
    ):
        self.tier = tier
        self.memory_ops = memory_ops
        self.annotated_ops = annotated_ops
        self.empty_ops = empty_ops
        self.avg_set_size = avg_set_size
        self.max_set_size = max_set_size
        self.singleton_ratio = singleton_ratio
        self.mayalias_pairs = mayalias_pairs
        self.solver_iterations = solver_iterations
        self.solve_seconds = solve_seconds
        self.nodes = nodes
        self.contexts = contexts
        self.content_regions = content_regions

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tier": self.tier,
            "memory_ops": self.memory_ops,
            "annotated_ops": self.annotated_ops,
            "empty_ops": self.empty_ops,
            "avg_set_size": round(self.avg_set_size, 4),
            "max_set_size": self.max_set_size,
            "singleton_ratio": round(self.singleton_ratio, 4),
            "mayalias_pairs": self.mayalias_pairs,
            "solver_iterations": self.solver_iterations,
            "solve_seconds": round(self.solve_seconds, 6),
            "nodes": self.nodes,
            "contexts": self.contexts,
            "content_regions": self.content_regions,
        }

    def describe(self) -> str:
        """Compact one-line summary for CLI output."""
        return (
            f"tier={self.tier}  avg|pts|={self.avg_set_size:.2f}  "
            f"singleton={self.singleton_ratio:.0%}  "
            f"mayalias-pairs={self.mayalias_pairs}  "
            f"({self.solver_iterations} iters, "
            f"{self.solve_seconds * 1000.0:.1f} ms)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<pts-stats {self.describe()}>"


class PointsToResult:
    """Query interface every points-to tier implements.

    Consumers (:func:`annotate_memory_ops`, the access-pattern merge, GDP,
    the memory locks) only ever see data-object ids through this
    interface; offsets and calling contexts are solver-internal.
    """

    tier: str = "?"

    def points_to(self, func: str, reg: VirtualRegister) -> FrozenSet[str]:
        raise NotImplementedError

    def objects_for_address(self, func: str, addr) -> FrozenSet[str]:
        """Objects an address value may point into."""
        if isinstance(addr, GlobalAddress):
            return frozenset({global_object_id(addr.symbol)})
        if isinstance(addr, VirtualRegister):
            return self.points_to(func, addr)
        return frozenset()

    def objects_for_op(self, func: str, op: Operation) -> FrozenSet[str]:
        """Objects a LOAD/STORE may access (empty for other ops)."""
        addr = op.address_operand()
        if addr is None:
            return frozenset()
        return self.objects_for_address(func, addr)

    def stats(self) -> PointsToStats:
        raise NotImplementedError


#: Fact offsets: an ``int`` byte offset into the object, or ``None`` when
#: the offset is unknown (and always ``None`` in offset-insensitive tiers).
_Fact = Tuple[str, Optional[int]]


class TieredPointsTo(PointsToResult):
    """One inclusion-based solver parameterised by precision tier.

    The solver is the standard worklist formulation over a copy-edge graph
    that grows as ``LOAD``/``STORE`` address sets grow.  Tier switches:

    * field sensitivity adds byte offsets to pointer facts (shifted along
      ``PTRADD`` edges by affine-classified constant deltas) and splits
      each object's single content node into one node per field region;
    * context sensitivity instantiates each function's constraint summary
      once per calling call site (1-CFA), bottom-up over the call graph.

    The call graph and the block affine forms come from ``analyses``, the
    module's :class:`~repro.analysis.memo.Analyses` memo.
    """

    def __init__(self, analyses: "Analyses", tier: str):
        if tier not in TIERS:
            raise ValueError(f"unknown points-to tier {tier!r}; one of {TIERS}")
        self.module = analyses.module
        self.tier = tier
        self._field = tier in ("field", "cs")
        self._ctx = tier == "cs"

        self._pts: Dict[Tuple, Set[_Fact]] = {}
        #: src node -> dst node -> set of offset shifts (0 = plain copy,
        #: int = PTRADD delta, None = unknown delta: offset lost).
        self._edges: Dict[Tuple, Dict[Tuple, Set[Optional[int]]]] = {}
        self._load_sites: Dict[Tuple, Set[Tuple]] = {}   # addr -> dest nodes
        self._store_sites: Dict[Tuple, Set[Tuple]] = {}  # addr -> value nodes
        self._done_load: Dict[Tuple[Tuple, Tuple], Set[_Fact]] = {}
        self._done_store: Dict[Tuple[Tuple, Tuple], Set[_Fact]] = {}
        #: obj -> materialised content regions / registered wildcard readers.
        self._regions: Dict[str, Set[Optional[object]]] = {}
        self._wildcards: Dict[str, Set[Tuple]] = {}
        self._contexts: Dict[str, Tuple] = {}
        self._region_map: Dict[str, List[Tuple[int, int]]] = {}
        self._deltas: Dict[int, Optional[int]] = {}
        self.solver_iterations = 0

        started = time.perf_counter()
        self._prepare(analyses)
        self._solve()
        self.solve_seconds = time.perf_counter() - started
        self._stats: Optional[PointsToStats] = None

    # -- node naming --------------------------------------------------------------

    @staticmethod
    def _reg(func: str, ctx, reg: VirtualRegister) -> Tuple:
        return ("r", func, ctx, reg.vid)

    @staticmethod
    def _content(obj: str, region) -> Tuple:
        return ("c", obj, region)

    @staticmethod
    def _ret(func: str, ctx) -> Tuple:
        return ("ret", func, ctx)

    # -- precomputation -----------------------------------------------------------

    def _prepare(self, analyses: "Analyses") -> None:
        """Contexts (cs tier) and affine offset classification (field)."""
        if self._ctx:
            cg = analyses.callgraph()
            main = self.module.functions.get("main")
            for name in cg.bottom_up_order():
                sites = tuple(sorted(op.uid for op in cg.call_sites.get(name, ())))
                if main is not None and name == main.name:
                    sites = (None,) + sites
                self._contexts[name] = sites or (None,)
        else:
            self._contexts = {f.name: (None,) for f in self.module}

        if not self._field:
            return
        intervals: Dict[str, List[Tuple[int, int]]] = {}
        for func in self.module:
            for block in func:
                aff = analyses.affine(func, block)
                for uid, form in aff.ptradd_offset.items():
                    self._deltas[uid] = form.as_constant()
                # Direct global accesses at constant offsets define the
                # statically known field regions of each object.
                for uid, form in aff.address_of.items():
                    if len(form.terms) != 1:
                        continue
                    ((atom, coeff),) = form.terms.items()
                    if coeff != 1 or not (
                        isinstance(atom, tuple) and len(atom) == 2 and atom[0] == "g"
                    ):
                        continue
                    width = aff.width_of.get(uid, 1)
                    intervals.setdefault(global_object_id(atom[1]), []).append(
                        (form.const, form.const + width)
                    )
        self._region_map = {
            obj: coalesce_intervals(pairs) for obj, pairs in intervals.items()
        }

    def _canon(self, obj: str, off: Optional[int]):
        """Canonical content-region key for a byte offset into ``obj``.

        Offsets inside one coalesced (overlapping/adjacent) statically
        observed access interval share a region; anything else keys on the
        raw offset.  ``None`` (unknown) stays ``None`` — the TOP region.
        """
        if off is None:
            return None
        for i, (lo, hi) in enumerate(self._region_map.get(obj, ())):
            if lo <= off < hi:
                return ("R", i)
        return off

    def _seed_off(self) -> Optional[int]:
        return 0 if self._field else None

    def _delta_for(self, op: Operation) -> Optional[int]:
        """Offset shift carried by a PTRADD edge (0 when offset-insensitive)."""
        if not self._field:
            return 0
        return self._deltas.get(op.uid)

    # -- constraint helpers -------------------------------------------------------

    def _value_facts(
        self, func: str, ctx, value, out_facts: Set[_Fact]
    ) -> Optional[Tuple]:
        """Node for a source value; GlobalAddress contributes a constant fact."""
        if isinstance(value, GlobalAddress):
            out_facts.add((global_object_id(value.symbol), self._seed_off()))
            return None
        if isinstance(value, VirtualRegister):
            return self._reg(func, ctx, value)
        return None

    def _shifted(self, facts: Set[_Fact], shift: Optional[int]) -> Set[_Fact]:
        if shift == 0 or not self._field:
            return facts
        if shift is None:
            return {(obj, None) for obj, _off in facts}
        return {
            (obj, off + shift if off is not None else None)
            for obj, off in facts
        }

    def _add_pts(self, node: Tuple, facts: Set[_Fact], worklist: List[Tuple]) -> None:
        if not facts:
            return
        current = self._pts.setdefault(node, set())
        new = facts - current
        if new:
            current |= new
            worklist.append(node)

    def _add_edge(
        self, src: Tuple, dst: Tuple, shift: Optional[int], worklist: List[Tuple]
    ) -> None:
        shifts = self._edges.setdefault(src, {}).setdefault(dst, set())
        if shift in shifts:
            return
        shifts.add(shift)
        facts = self._pts.get(src)
        if facts:
            self._add_pts(dst, self._shifted(set(facts), shift), worklist)

    def _touch_region(self, obj: str, region, worklist: List[Tuple]) -> None:
        """A store materialised content node (obj, region): connect it to
        every wildcard (unknown-offset) reader of ``obj``."""
        regions = self._regions.setdefault(obj, set())
        if region in regions:
            return
        regions.add(region)
        for dest in tuple(self._wildcards.get(obj, ())):
            self._add_edge(self._content(obj, region), dest, 0, worklist)

    def _add_wildcard(self, obj: str, dest: Tuple, worklist: List[Tuple]) -> None:
        """``dest`` loads from ``obj`` at an unknown offset: it reads every
        content region, including ones future stores materialise."""
        readers = self._wildcards.setdefault(obj, set())
        if dest in readers:
            return
        readers.add(dest)
        for region in tuple(self._regions.get(obj, ())):
            self._add_edge(self._content(obj, region), dest, 0, worklist)

    def _load_fact(self, fact: _Fact, dest: Tuple, worklist: List[Tuple]) -> None:
        obj, off = fact
        region = self._canon(obj, off)
        if region is None:
            self._add_wildcard(obj, dest, worklist)
        else:
            self._add_edge(self._content(obj, region), dest, 0, worklist)
            self._add_edge(self._content(obj, None), dest, 0, worklist)

    def _store_fact(self, fact: _Fact, value_node: Tuple, worklist: List[Tuple]) -> None:
        obj, off = fact
        region = self._canon(obj, off)
        self._add_edge(value_node, self._content(obj, region), 0, worklist)
        self._touch_region(obj, region, worklist)

    def _store_const_fact(
        self, fact: _Fact, vfacts: Set[_Fact], worklist: List[Tuple]
    ) -> None:
        obj, off = fact
        region = self._canon(obj, off)
        self._add_pts(self._content(obj, region), vfacts, worklist)
        self._touch_region(obj, region, worklist)

    def _register_load(self, addr: Tuple, dest: Tuple, worklist: List[Tuple]) -> None:
        self._load_sites.setdefault(addr, set()).add(dest)
        facts = self._pts.get(addr)
        if facts:
            done = self._done_load.setdefault((addr, dest), set())
            for fact in set(facts) - done:
                self._load_fact(fact, dest, worklist)
            done |= facts

    def _register_store(self, addr: Tuple, value: Tuple, worklist: List[Tuple]) -> None:
        self._store_sites.setdefault(addr, set()).add(value)
        facts = self._pts.get(addr)
        if facts:
            done = self._done_store.setdefault((addr, value), set())
            for fact in set(facts) - done:
                self._store_fact(fact, value, worklist)
            done |= facts

    # -- constraint generation ------------------------------------------------------

    def _solve(self) -> None:
        worklist: List[Tuple] = []

        # Each function's constraints form its summary; instantiate the
        # summary once per calling context (bottom-up order in cs mode).
        for fname, ctxs in self._contexts.items():
            func = self.module.functions.get(fname)
            if func is None:
                continue
            for ctx in ctxs:
                self._gen_function(func, ctx, worklist)

        self._propagate(worklist)

    def _gen_function(self, func: Function, ctx, worklist: List[Tuple]) -> None:
        fname = func.name
        for op in func.operations():
            if op.opcode is Opcode.MALLOC:
                obj = heap_object_id(op.attrs["site"])
                self._add_pts(
                    self._reg(fname, ctx, op.dest), {(obj, self._seed_off())}, worklist
                )
            elif op.opcode in (Opcode.MOV, Opcode.PTRADD, Opcode.ICMOVE):
                self._constrain_copy_like(fname, ctx, op, worklist)
            elif op.opcode is Opcode.SELECT:
                facts: Set[_Fact] = set()
                for src in op.srcs[1:]:
                    node = self._value_facts(fname, ctx, src, facts)
                    if node is not None:
                        self._add_edge(
                            node, self._reg(fname, ctx, op.dest), 0, worklist
                        )
                self._add_pts(self._reg(fname, ctx, op.dest), facts, worklist)
            elif op.opcode is Opcode.LOAD:
                self._constrain_load(fname, ctx, op, worklist)
            elif op.opcode is Opcode.STORE:
                self._constrain_store(fname, ctx, op, worklist)
            elif op.opcode is Opcode.CALL:
                self._constrain_call(fname, ctx, op, worklist)
            elif op.opcode is Opcode.RET and op.srcs:
                facts = set()
                node = self._value_facts(fname, ctx, op.srcs[0], facts)
                if node is not None:
                    self._add_edge(node, self._ret(fname, ctx), 0, worklist)
                self._add_pts(self._ret(fname, ctx), facts, worklist)

    def _constrain_copy_like(self, fname: str, ctx, op: Operation, worklist) -> None:
        if op.dest is None or (
            not op.dest.ty.is_pointer() and op.opcode is not Opcode.PTRADD
        ):
            # Copies of non-pointers cannot carry addresses... except PTRADD,
            # whose dest is always a pointer by construction.
            return
        shift = self._delta_for(op) if op.opcode is Opcode.PTRADD else 0
        facts: Set[_Fact] = set()
        node = self._value_facts(fname, ctx, op.srcs[0], facts)
        if node is not None:
            self._add_edge(node, self._reg(fname, ctx, op.dest), shift, worklist)
        self._add_pts(
            self._reg(fname, ctx, op.dest), self._shifted(facts, shift), worklist
        )

    def _constrain_load(self, fname: str, ctx, op: Operation, worklist) -> None:
        if not op.dest.ty.is_pointer():
            return
        afacts: Set[_Fact] = set()
        addr_node = self._value_facts(fname, ctx, op.srcs[0], afacts)
        dest_node = self._reg(fname, ctx, op.dest)
        for fact in afacts:
            self._load_fact(fact, dest_node, worklist)
        if addr_node is not None:
            self._register_load(addr_node, dest_node, worklist)

    def _constrain_store(self, fname: str, ctx, op: Operation, worklist) -> None:
        value, addr = op.srcs[0], op.srcs[1]
        if not value.ty.is_pointer() and not isinstance(value, GlobalAddress):
            return
        vfacts: Set[_Fact] = set()
        value_node = self._value_facts(fname, ctx, value, vfacts)
        afacts: Set[_Fact] = set()
        addr_node = self._value_facts(fname, ctx, addr, afacts)
        if value_node is None:
            # Storing a constant address: seed the content nodes directly.
            for fact in afacts:
                self._store_const_fact(fact, vfacts, worklist)
            if addr_node is not None and vfacts:
                fake = ("k", op.uid, ctx)
                self._add_pts(fake, vfacts, worklist)
                self._register_store(addr_node, fake, worklist)
        else:
            for fact in afacts:
                self._store_fact(fact, value_node, worklist)
            if addr_node is not None:
                self._register_store(addr_node, value_node, worklist)

    def _constrain_call(self, fname: str, ctx, op: Operation, worklist) -> None:
        callee = op.attrs.get("callee")
        if callee not in self.module.functions:
            return
        callee_fn = self.module.functions[callee]
        callee_ctx = op.uid if self._ctx else None
        for arg, param in zip(op.srcs[1:], callee_fn.params):
            facts: Set[_Fact] = set()
            node = self._value_facts(fname, ctx, arg, facts)
            pnode = self._reg(callee, callee_ctx, param)
            if node is not None:
                self._add_edge(node, pnode, 0, worklist)
            self._add_pts(pnode, facts, worklist)
        if op.dest is not None and op.dest.ty.is_pointer():
            self._add_edge(
                self._ret(callee, callee_ctx),
                self._reg(fname, ctx, op.dest),
                0,
                worklist,
            )

    # -- fixpoint -------------------------------------------------------------------

    def _propagate(self, worklist: List[Tuple]) -> None:
        while worklist:
            node = worklist.pop()
            self.solver_iterations += 1
            facts = set(self._pts.get(node, ()))
            for dst, shifts in list(self._edges.get(node, {}).items()):
                for shift in tuple(shifts):
                    self._add_pts(dst, self._shifted(facts, shift), worklist)
            for dest in list(self._load_sites.get(node, ())):
                done = self._done_load.setdefault((node, dest), set())
                for fact in facts - done:
                    self._load_fact(fact, dest, worklist)
                done |= facts
            for value in list(self._store_sites.get(node, ())):
                done = self._done_store.setdefault((node, value), set())
                for fact in facts - done:
                    self._store_fact(fact, value, worklist)
                done |= facts

    # -- queries --------------------------------------------------------------------

    def _ctxs_of(self, func: str) -> Tuple:
        return self._contexts.get(func, (None,))

    def points_to(self, func: str, reg: VirtualRegister) -> FrozenSet[str]:
        out: Set[str] = set()
        for ctx in self._ctxs_of(func):
            for obj, _off in self._pts.get(("r", func, ctx, reg.vid), ()):
                out.add(obj)
        return frozenset(out)

    # -- observability ----------------------------------------------------------------

    def stats(self) -> PointsToStats:
        if self._stats is None:
            self._stats = self._compute_stats()
        return self._stats

    def _compute_stats(self) -> PointsToStats:
        sizes: List[int] = []
        empty = 0
        memory_ops = 0
        max_size = 0
        pairs: Set[Tuple[str, str]] = set()
        for func in self.module:
            for op in func.operations():
                if not op.is_memory_access():
                    continue
                memory_ops += 1
                objs = self.objects_for_op(func.name, op)
                if not objs:
                    empty += 1
                    continue
                sizes.append(len(objs))
                max_size = max(max_size, len(objs))
                ordered = sorted(objs)
                for i, a in enumerate(ordered):
                    for b in ordered[i + 1:]:
                        pairs.add((a, b))
        annotated = len(sizes)
        return PointsToStats(
            tier=self.tier,
            memory_ops=memory_ops,
            annotated_ops=annotated,
            empty_ops=empty,
            avg_set_size=(sum(sizes) / annotated) if annotated else 0.0,
            max_set_size=max_size,
            singleton_ratio=(sizes.count(1) / annotated) if annotated else 0.0,
            mayalias_pairs=len(pairs),
            solver_iterations=self.solver_iterations,
            solve_seconds=self.solve_seconds,
            nodes=len(self._pts),
            contexts=sum(len(c) for c in self._contexts.values()),
            content_regions=sum(len(r) for r in self._regions.values()),
        )


def solve_pointsto(module: Module, tier: str = "andersen") -> PointsToResult:
    """Solve one precision tier over ``module`` (a fresh memo's
    ``pointsto(tier)``; a caller holding the module's memo asks it)."""
    from .memo import Analyses

    return Analyses(module).pointsto(tier)


def annotate_memory_ops(
    module: Module,
    pointsto: Optional[PointsToResult] = None,
    tier: str = "andersen",
    analyses: Optional["Analyses"] = None,
) -> PointsToResult:
    """Mark every LOAD/STORE with ``mem_objects`` and every MALLOC with its
    heap object id.  Returns the points-to solution used: ``pointsto``,
    else ``tier``'s solve in ``analyses`` (the module's memo; a fresh one
    when omitted)."""
    pts = pointsto or (
        solve_pointsto(module, tier) if analyses is None
        else analyses.pointsto(tier)
    )
    for func in module:
        for op in func.operations():
            if op.is_memory_access():
                op.attrs["mem_objects"] = pts.objects_for_op(func.name, op)
            elif op.opcode is Opcode.MALLOC:
                op.attrs["mem_objects"] = frozenset(
                    {heap_object_id(op.attrs["site"])}
                )
    return pts
