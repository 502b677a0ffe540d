"""Span recorder for the traced run, wrapped around each layer's public
entry points from the outside (nothing inside ``src/`` is instrumented).

A span opens when a wrapped function is called and closes when it
returns.  Spans nest per thread; a span's *self* time is its duration
minus the durations of the spans opened directly inside it.  Only
per-name aggregates are kept (calls, inclusive seconds, self seconds)
plus named counters, so wrapping a hot function such as the RHOP
estimator costs one clock pair and one dict update per call.

Wrappers patch the attribute the *caller* looks up: a name imported with
``from x import f`` must be patched in the importing module, a method on
its class.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.enabled = False
        #: name -> [calls, inclusive seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------------

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        stack.append(0.0)  # children's inclusive time accumulates here
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - start
            children = stack.pop()
            if stack:
                stack[-1] += duration
            with self._lock:
                rec = self.spans.get(name)
                if rec is None:
                    rec = self.spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - children

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counters[name] = self.counters.get(name, 0) + amount

    # -- patching --------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[[Tuple, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a spanned version; ``after(args,
        result)`` runs once the call returns (for counters)."""
        saved = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(saved, classmethod)
        original = saved.__func__ if is_classmethod else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = tracer.span(name, original, *args, **kwargs)
            if after is not None and tracer.enabled:
                after(args, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    # -- results ---------------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        rec = self.spans.get(name)
        return rec[2] if rec else 0.0

    def calls(self, name: str) -> int:
        rec = self.spans.get(name)
        return int(rec[0]) if rec else 0

    def total_self_seconds(self) -> float:
        return sum(rec[2] for rec in self.spans.values())


def install_layer_probes(tracer: Tracer) -> None:
    """Wrap every layer boundary the three workloads cross."""
    import repro.lint as lint
    from repro import opt
    from repro.analysis import ObjectTable
    from repro.analysis.dataflow import staticprofile
    from repro.evalmodel import roofline
    from repro.exec import engine
    from repro.exec.cache import ArtifactCache
    from repro.partition.estimator import ScheduleEstimator
    from repro.partition.rhop import RHOP
    from repro.pipeline import prepared, schemes
    from repro.pipeline.prepared import PreparedProgram, ProgramGraph
    from repro.profiler.interp import Interpreter
    from repro.resilience.pipeline import ResilientPipeline
    from repro.service import broker
    from repro.service.journal import Journal

    wrap = tracer.wrap
    # prepare side
    wrap(PreparedProgram, "from_source", "pipeline.prepare")
    wrap(prepared, "compile_source", "lang.compile")
    wrap(opt, "optimize_module", "opt.optimize")
    wrap(Interpreter, "run", "profiler.interp",
         after=lambda args, _r: tracer.count("profiler.steps",
                                             args[0].steps))
    wrap(prepared, "annotate_memory_ops", "analysis.pointsto")
    wrap(staticprofile, "build_static_profile", "analysis.static_profile")
    wrap(ObjectTable, "__init__", "analysis.objects")
    wrap(ProgramGraph, "__init__", "analysis.program_graph")
    wrap(prepared, "access_pattern_merge", "partition.merge")
    wrap(lint, "lint_with_stats", "lint.run")
    # partitioning and evaluation
    wrap(ResilientPipeline, "run", "resilience.ladder")
    wrap(PreparedProgram, "fresh_copy", "ir.clone")
    wrap(schemes, "gdp_partition", "partition.gdp")
    wrap(RHOP, "partition_module", "partition.rhop")
    wrap(ScheduleEstimator, "estimate", "partition.estimate")
    wrap(ScheduleEstimator, "move_count", "partition.move_count")
    wrap(schemes, "memory_locks", "partition.locks")
    wrap(schemes, "insert_intercluster_moves", "partition.assign")
    wrap(schemes, "evaluate_module", "evalmodel.evaluate")
    wrap(roofline, "roofline_for", "evalmodel.roofline")
    # execution engine and its artifact cache
    wrap(engine, "run_cell", "exec.run_cell")
    wrap(broker, "run_cell", "exec.run_cell")
    wrap(ArtifactCache, "load", "exec.cache_load",
         after=lambda _a, result: tracer.count(
             "exec.cache_hits", result is not None))
    wrap(ArtifactCache, "store", "exec.cache_store")
    for name in ("prepared_from_payload", "outcome_from_payload"):
        wrap(engine, name, "exec.rehydrate")
    for name in ("prepared_to_payload", "outcome_to_payload"):
        wrap(engine, name, "exec.serialize")
    # service
    wrap(broker, "lookup_cached_outcome", "service.probe")
    wrap(Journal, "append", "service.journal_append")
