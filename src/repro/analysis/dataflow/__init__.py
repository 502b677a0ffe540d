"""Abstract-interpretation dataflow framework.

A generic worklist fixpoint engine (:mod:`.framework`) plus the client
analyses built on it:

* :mod:`.clients` — must-defined registers, the engine-based
  replacement for an ad-hoc lint traversal;
* :mod:`.interval` — interval value-range analysis over MiniC IR with
  interprocedural parameter lifting;
* :mod:`.regions` — loop trip-count bounds, per-block execution bounds,
  and per-memory-op static access-weight bounds / touched byte-regions;
* :mod:`.staticprofile` — synthesizes a profiler-compatible
  :class:`StaticProfile` from the region analysis (imported lazily to
  avoid the analysis <-> profiler import cycle).
"""

from .clients import must_defined_registers
from .framework import (
    DataflowProblem,
    DataflowSolution,
    Lattice,
    SetLattice,
    solve,
)
from .interval import Interval, IntervalAnalysis
from .regions import AccessRegionAnalysis, ExecutionBounds, TripCounts

__all__ = [
    "AccessRegionAnalysis",
    "DataflowProblem",
    "DataflowSolution",
    "ExecutionBounds",
    "Interval",
    "IntervalAnalysis",
    "Lattice",
    "SetLattice",
    "TripCounts",
    "must_defined_registers",
    "solve",
]
