"""Program preparation shared by every partitioning scheme.

One :class:`PreparedProgram` per benchmark: the annotated module, its
execution profile and the data-object table, plus the program-level DFG
and the access-pattern merge — everything the schemes consume, each
computed once.  The DFG and the merge are built on first read: only GDP
and Profile Max (and partcheck's group check) consume them.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..analysis import (
    Analyses,
    ObjectTable,
    PointsToResult,
    ProgramGraph,
    annotate_memory_ops,
)
from ..ir import Module, clone_module, renumber_ops
from ..lang import compile_source
from ..partition.merges import MergeResult, access_pattern_merge
from ..profiler import Interpreter, ProfileData

class PreparedProgram:
    """A compiled, profiled, annotated program ready for partitioning.

    The points-to precision tier (``"andersen"`` | ``"field"`` | ``"cs"``)
    selects the solve that annotates the memory ops (:meth:`from_source`
    takes it from a :class:`~repro.exec.RunConfig`); everything
    downstream — object table, access-pattern merge, GDP, memory locks —
    consumes the chosen tier's annotations.

    ``profile`` and ``pointsto`` let the artifact cache rehydrate a
    prepared program without re-interpreting or re-solving: the serialized
    module text already carries the ``mem_objects`` annotations.

    ``profile_mode="static"`` skips the interpreter entirely and
    synthesizes the profile from the abstract-interpretation access-region
    analysis (``analysis.dataflow.staticprofile``) — the partitioners then
    run on derived weights instead of measured ones.
    """

    def __init__(
        self,
        module: Module,
        profile: Optional[ProfileData] = None,
        pointsto_tier: str = "andersen",
        pointsto: Optional[PointsToResult] = None,
        profile_mode: str = "dynamic",
    ):
        self.module = module
        self.pointsto_tier = pointsto_tier
        self.profile_mode = profile_mode
        if profile is None and profile_mode == "static":
            # Static preparation annotates first: the region analysis
            # needs the points-to object sets the interpreter path only
            # computes afterwards.  The tier solve and the profile, which
            # reads the annotations, share a memo of their own (the call
            # graph and block affine forms read no annotations), so the
            # analyses behind the profile are dropped once it is built.
            analyses = Analyses(module)
            self.pointsto = (
                pointsto
                if pointsto is not None
                else annotate_memory_ops(
                    module, tier=self.pointsto_tier, analyses=analyses
                )
            )
            profile = analyses.static_profile(None)
            self.result = None
            self.profile = profile
        else:
            if profile is None:
                interp = Interpreter(module)
                self.result = interp.run()
                profile = interp.profile
            else:
                self.result = None
            self.profile = profile
            self.pointsto = (
                pointsto
                if pointsto is not None
                else annotate_memory_ops(module, tier=self.pointsto_tier)
            )
        self._fingerprint: Optional[str] = None
        # Starts empty: ``pointsto`` may be a cached stand-in that cannot
        # answer queries, and ``objects`` carries profiled heap sizes.
        # ``program_graph`` and ``merge`` are entries of this memo.
        self.analyses = Analyses(module)
        self.objects = ObjectTable(module, dict(profile.heap_sizes))
        self.block_freq: Callable[[str, str], float] = profile.frequency_fn()

    # -- analyses built on first read --------------------------------------------

    @property
    def program_graph(self) -> ProgramGraph:
        """Program-level DFG (GDP's Phase 1 input)."""
        return self.analyses.memo(
            "program_graph", lambda: ProgramGraph(self.module, self.block_freq)
        )

    @property
    def merge(self) -> MergeResult:
        """Access-pattern merge of the objects over :attr:`program_graph`
        (GDP's coarsening; Profile Max groups objects the same way)."""
        return self.analyses.memo(
            "merge", lambda: access_pattern_merge(self.program_graph, self.objects)
        )

    #: Default unroll factor — restores the region-level ILP the paper's
    #: Trimaran superblocks provide (see repro.lang.unroll).
    DEFAULT_UNROLL = 4

    @classmethod
    def from_source(
        cls,
        source: str,
        name: str = "program",
        config=None,
    ) -> "PreparedProgram":
        """Compile MiniC source — with if-conversion, loop unrolling and
        scalar optimization, recovering the region-level ILP and code
        quality of the paper's hyperblock-forming compiler — then profile
        (under the interpreter's ``MAX_STEPS`` budget) and prepare it
        under ``config``'s points-to tier and profile source (default:
        andersen, dynamic)."""
        from ..opt import optimize_module

        module = compile_source(
            source, name, unroll_factor=cls.DEFAULT_UNROLL, if_convert=True
        )
        optimize_module(module)
        # Canonicalize uid order before any uid-keyed side table exists:
        # the optimizer creates ops out of textual order, and partitioner
        # tie-breaks on relative uid order must match what a cache
        # rehydration (uids in parse order) would produce.
        renumber_ops(module)
        if config is None:
            return cls(module)
        return cls(
            module, pointsto_tier=config.pointsto_tier,
            profile_mode=config.profile,
        )

    def fingerprint(self) -> str:
        """Content hash of the annotated module (memoized); the IR half of
        every outcome-cache key."""
        if self._fingerprint is None:
            from ..exec.artifacts import module_fingerprint

            self._fingerprint = module_fingerprint(self.module)
        return self._fingerprint

    # -- per-scheme working copies -------------------------------------------------

    def fresh_copy(self):
        """(clone, uid map) — schemes mutate clones, never the original."""
        return clone_module(self.module)

    def translated_op_counts(self, uid_map: Dict[int, int]):
        """Per-op dynamic object-access counters re-keyed onto a clone."""
        return {
            uid_map[uid]: counts
            for uid, counts in self.profile.op_object_counts.items()
            if uid in uid_map
        }

    def object_access_counts(self) -> Dict[str, int]:
        """Total dynamic accesses per data object."""
        return dict(self.profile.object_access_counts())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<prepared {self.module.name}: {self.module.op_count()} ops, "
            f"{len(self.objects)} objects>"
        )
