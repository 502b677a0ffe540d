"""Intra-block dependence graphs.

One DAG per basic block (the scheduling region): flow (def-use), anti
(use-def), output (def-def), memory-ordering and call-barrier edges.
Memory edges are pruned when the points-to annotations prove two accesses
touch disjoint object sets.  The DAG also provides ASAP/ALAP times and the
per-edge *slack* that drives RHOP's coarsening priorities.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..analysis.affine import AffineAddresses
from ..ir import BasicBlock, Opcode, Operation


class DepEdge:
    """A dependence from ``src`` to ``dst`` with a minimum issue delay.

    ``kind``: "flow" (value flows, delay = src latency), "anti" (delay 0),
    "output" (delay 1), "mem"/"call" (ordering, delay depends on kinds).
    Only flow edges require intercluster moves when cut.
    """

    __slots__ = ("src", "dst", "delay", "kind")

    def __init__(self, src: int, dst: int, delay: int, kind: str):
        self.src = src
        self.dst = dst
        self.delay = delay
        self.kind = kind

    def is_flow(self) -> bool:
        return self.kind == "flow"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.kind} {self.src}->{self.dst} d={self.delay}>"


def _objects_disjoint(a: Operation, b: Operation) -> bool:
    """True when points-to annotations prove a and b cannot alias."""
    oa, ob = a.mem_objects(), b.mem_objects()
    return bool(oa) and bool(ob) and not (oa & ob)


class DependenceGraph:
    """The scheduling DAG of one basic block."""

    def __init__(self, block: BasicBlock, latency_of: Callable[[Operation], int]):
        self.block = block
        self.latency_of = latency_of
        self.ops: List[Operation] = list(block.ops)
        self.op_by_uid: Dict[int, Operation] = {op.uid: op for op in self.ops}
        self._affine = AffineAddresses(block)
        self.edges: List[DepEdge] = []
        self.preds: Dict[int, List[DepEdge]] = {op.uid: [] for op in self.ops}
        self.succs: Dict[int, List[DepEdge]] = {op.uid: [] for op in self.ops}
        self._build()
        self._order = [op.uid for op in self.ops]  # block order is topological

        self._asap: Optional[Dict[int, int]] = None
        self._alap: Optional[Dict[int, int]] = None

    # -- construction ------------------------------------------------------------

    def _add_edge(self, src: int, dst: int, delay: int, kind: str) -> None:
        if src == dst:
            return
        edge = DepEdge(src, dst, delay, kind)
        self.edges.append(edge)
        self.preds[dst].append(edge)
        self.succs[src].append(edge)

    def _build(self) -> None:
        last_def: Dict[int, Operation] = {}
        uses_since_def: Dict[int, List[Operation]] = {}
        pending_stores: List[Operation] = []
        pending_loads: List[Operation] = []
        last_call: Optional[Operation] = None
        terminator = self.ops[-1] if self.ops and self.ops[-1].is_terminator() else None

        for op in self.ops:
            # Flow edges from the most recent def of each source register.
            for src in op.register_srcs():
                d = last_def.get(src.vid)
                if d is not None:
                    self._add_edge(d.uid, op.uid, self.latency_of(d), "flow")
                uses_since_def.setdefault(src.vid, []).append(op)
            # Anti and output edges for the destination register.
            if op.dest is not None:
                vid = op.dest.vid
                for use in uses_since_def.get(vid, ()):
                    if use is not op:
                        self._add_edge(use.uid, op.uid, 0, "anti")
                prev = last_def.get(vid)
                if prev is not None:
                    self._add_edge(prev.uid, op.uid, 1, "output")
                last_def[vid] = op
                uses_since_def[vid] = []
            # Memory ordering.
            if op.opcode is Opcode.LOAD:
                for store in pending_stores:
                    if not self._independent(store, op):
                        self._add_edge(
                            store.uid, op.uid, self.latency_of(store), "mem"
                        )
                pending_loads.append(op)
            elif op.opcode is Opcode.STORE:
                for store in pending_stores:
                    if not self._independent(store, op):
                        self._add_edge(store.uid, op.uid, 1, "mem")
                for load in pending_loads:
                    if not self._independent(load, op):
                        self._add_edge(load.uid, op.uid, 0, "mem")
                pending_stores.append(op)
            # Calls are barriers for memory and for other calls.
            if op.is_call():
                for other in pending_stores + pending_loads:
                    self._add_edge(other.uid, op.uid, 0, "call")
                if last_call is not None:
                    self._add_edge(
                        last_call.uid, op.uid, self.latency_of(last_call), "call"
                    )
                pending_stores = []
                pending_loads = []
                last_call = op
            elif op.is_memory_access() and last_call is not None:
                self._add_edge(last_call.uid, op.uid, self.latency_of(last_call), "call")
            # Everything issues no later than the terminator.
            if terminator is not None and op is not terminator:
                self._add_edge(op.uid, terminator.uid, 0, "order")

    def _independent(self, a: Operation, b: Operation) -> bool:
        """Memory accesses proven independent by object sets or by the
        affine address analysis (same array, non-overlapping offsets)."""
        return _objects_disjoint(a, b) or self._affine.provably_disjoint(a, b)

    # -- timing ----------------------------------------------------------------------

    def asap(self) -> Dict[int, int]:
        """Earliest issue cycle per op, unconstrained by resources."""
        if self._asap is None:
            times: Dict[int, int] = {}
            for uid in self._order:
                t = 0
                for edge in self.preds[uid]:
                    t = max(t, times[edge.src] + edge.delay)
                times[uid] = t
            self._asap = times
        return self._asap

    def alap(self) -> Dict[int, int]:
        """Latest issue cycle per op given the critical-path length."""
        if self._alap is None:
            asap = self.asap()
            horizon = max(
                (asap[op.uid] + self.latency_of(op) for op in self.ops), default=0
            )
            times: Dict[int, int] = {}
            for uid in reversed(self._order):
                op = self.op_by_uid[uid]
                t = horizon - self.latency_of(op)
                for edge in self.succs[uid]:
                    t = min(t, times[edge.dst] - edge.delay)
                times[uid] = t
            self._alap = times
        return self._alap

    def slack(self, edge: DepEdge) -> int:
        """Schedule freedom of an edge: alap(dst) - asap(src) - delay."""
        return self.alap()[edge.dst] - self.asap()[edge.src] - edge.delay

    def critical_path_length(self) -> int:
        asap = self.asap()
        return max(
            (asap[op.uid] + self.latency_of(op) for op in self.ops), default=0
        )

    def height(self, uid: int) -> int:
        """Longest delay-weighted path from op to any sink (list-scheduler
        priority)."""
        heights: Dict[int, int] = getattr(self, "_heights", None)
        if heights is None:
            heights = {}
            for node in reversed(self._order):
                op = self.op_by_uid[node]
                h = self.latency_of(op)
                for edge in self.succs[node]:
                    h = max(h, edge.delay + heights[edge.dst])
                heights[node] = h
            self._heights = heights
        return heights[uid]

    def flow_edges(self) -> List[DepEdge]:
        return [e for e in self.edges if e.is_flow()]

    def __len__(self) -> int:
        return len(self.ops)
