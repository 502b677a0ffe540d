"""Whole-program analyses: CFG, dominators, loops, liveness, def-use,
call graph, points-to, data objects, the program-level DFG, and the
abstract-interpretation dataflow framework (``analysis.dataflow``), and
the per-module memo over all of them (:class:`Analyses`)."""

from .callgraph import CallGraph
from .cfg import CFG
from .defuse import DefUse
from .dfg import ProgramGraph, ProgramNode
from .dominators import DominatorTree
from .liveness import Liveness
from .loops import Loop, LoopInfo
from .modref import (
    ModRefAnalysis,
    ModRefSummary,
    effect_contains,
    format_effect,
)
from .objects import DataObject, ObjectTable
from .pointsto import (
    TIERS,
    PointsTo,
    PointsToResult,
    PointsToStats,
    TieredPointsTo,
    annotate_memory_ops,
    global_object_id,
    heap_object_id,
    solve_pointsto,
)
from .dataflow import (
    AccessRegionAnalysis,
    DataflowProblem,
    DataflowSolution,
    ExecutionBounds,
    Interval,
    IntervalAnalysis,
    Lattice,
    SetLattice,
    TripCounts,
    solve,
)
from .memo import Analyses, op_locations

__all__ = [
    "Analyses",
    "op_locations",
    "AccessRegionAnalysis",
    "DataflowProblem",
    "DataflowSolution",
    "ExecutionBounds",
    "Interval",
    "IntervalAnalysis",
    "Lattice",
    "SetLattice",
    "TripCounts",
    "solve",
    "CallGraph",
    "CFG",
    "DefUse",
    "ProgramGraph",
    "ProgramNode",
    "DominatorTree",
    "Liveness",
    "Loop",
    "LoopInfo",
    "DataObject",
    "ObjectTable",
    "ModRefAnalysis",
    "ModRefSummary",
    "effect_contains",
    "format_effect",
    "TIERS",
    "PointsTo",
    "PointsToResult",
    "PointsToStats",
    "TieredPointsTo",
    "annotate_memory_ops",
    "global_object_id",
    "heap_object_id",
    "solve_pointsto",
]
