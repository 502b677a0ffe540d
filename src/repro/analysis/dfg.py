"""Program-level data-flow graph for the Global Data Partitioner.

Section 3.3 of the paper: "a program-level data-flow graph (DFG) of the
application is created.  When creating this graph, nodes are generated
from every operation in the code.  Memory operations and calls to malloc()
are annotated in the graph with the ids of their associated objects. ...
The only information recorded about the operations are the data-dependent
flow edges."

Nodes are operation uids across the whole module.  Edges are def-use flows
within functions plus argument/return flows across direct calls.  Each
edge carries a weight proportional to the execution frequency of the
defining block so that the min-cut objective approximates dynamic
intercluster communication.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..ir import Function, Module, Opcode, Operation
from .cfg import CFG
from .defuse import DefUse
from .loops import LoopInfo


class ProgramNode:
    """One operation in the program-level graph."""

    __slots__ = ("uid", "op", "func", "block", "freq")

    def __init__(self, uid: int, op: Operation, func: str, block: str, freq: float):
        self.uid = uid
        self.op = op
        self.func = func
        self.block = block
        self.freq = freq


class ProgramGraph:
    """Whole-program operation graph with weighted data-flow edges."""

    def __init__(self, module: Module, block_freq: Optional[Callable[[str, str], float]] = None):
        """``block_freq(func_name, block_name)`` supplies execution
        frequencies (profiled or estimated); defaults to the static
        loop-depth heuristic."""
        self.module = module
        self.nodes: Dict[int, ProgramNode] = {}
        self.edges: Dict[Tuple[int, int], float] = {}
        self._adjacency: Dict[int, Set[int]] = {}

        static_freqs: Dict[str, LoopInfo] = {}

        def default_freq(fname: str, bname: str) -> float:
            if fname not in static_freqs:
                func = module.functions[fname]
                static_freqs[fname] = LoopInfo(CFG(func))
            return static_freqs[fname].static_frequency(bname)

        freq_of = block_freq or default_freq

        for func in module:
            for block in func:
                freq = max(freq_of(func.name, block.name), 0.0)
                for op in block.ops:
                    self.nodes[op.uid] = ProgramNode(
                        op.uid, op, func.name, block.name, freq
                    )

        # One solve per function, shared by its own edges and by every
        # call site that stitches flows into it.
        defuses = {func.name: DefUse(func) for func in module}
        for func in module:
            # Sorted for determinism: set iteration order varies with the
            # process-global uid values.
            for (src_uid, dst_uid) in sorted(defuses[func.name].edges):
                self._add_edge(src_uid, dst_uid)
            # Stitch the interprocedural flows: call -> parameter uses and
            # return-defining flows back to the call.
            for op in func.operations():
                if op.is_call():
                    callee = op.attrs.get("callee")
                    if callee in module.functions:
                        callee_fn = module.functions[callee]
                        callee_du = defuses[callee]
                        for param in callee_fn.params:
                            for use_uid in callee_du.param_uses.get(param.vid, ()):
                                self._add_edge(op.uid, use_uid)
                        if op.dest is not None:
                            for cop in callee_fn.operations():
                                if cop.opcode is Opcode.RET and cop.srcs:
                                    self._add_edge(cop.uid, op.uid)

    def _add_edge(self, src: int, dst: int) -> None:
        if src == dst or src not in self.nodes or dst not in self.nodes:
            return
        # Communication frequency ~ how often the producing block runs.
        weight = 1.0 + self.nodes[src].freq
        key = (src, dst)
        self.edges[key] = self.edges.get(key, 0.0) + weight
        self._adjacency.setdefault(src, set()).add(dst)
        self._adjacency.setdefault(dst, set()).add(src)

    # -- queries ---------------------------------------------------------------

    def neighbors(self, uid: int) -> Set[int]:
        return self._adjacency.get(uid, set())

    def memory_nodes(self) -> List[ProgramNode]:
        """Nodes whose operation is annotated with data objects."""
        return [
            n
            for n in self.nodes.values()
            if n.op.mem_objects()
        ]

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return len(self.edges)

    def undirected_edges(self) -> Dict[Tuple[int, int], float]:
        """Edges with (min, max) uid keys, weights accumulated."""
        result: Dict[Tuple[int, int], float] = {}
        for (src, dst), w in self.edges.items():
            key = (src, dst) if src < dst else (dst, src)
            result[key] = result.get(key, 0.0) + w
        return result
