"""Profile data collected by the interpreter.

This is the execution profile the paper's partitioners consume:

* block execution counts (schedule lengths are weighted by these),
* per-memory-operation dynamic access counts split by data object,
* total bytes allocated per ``malloc`` site (object sizes for balance).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple, Union


class ProfileData:
    """Counters filled in during interpretation."""

    def __init__(self):
        self.block_counts: Counter = Counter()  # (func, block) -> executions
        self.op_object_counts: Dict[int, Counter] = {}  # op uid -> obj -> count
        self.heap_sizes: Counter = Counter()  # "h:<site>" -> total bytes
        self.call_counts: Counter = Counter()  # callee name -> calls
        # op uid -> obj -> (lo, hi) byte envelope of observed accesses,
        # offsets relative to the object's start.
        self.op_object_regions: Dict[int, Dict[str, Tuple[int, int]]] = {}
        self.instructions_executed = 0
        self.output: List[Union[int, float]] = []

    def is_static(self) -> bool:
        """True when the counters were derived by static analysis rather
        than measured (see ``analysis.dataflow.staticprofile``)."""
        return False

    # -- recording ----------------------------------------------------------------

    def record_block(self, func: str, block: str) -> None:
        self.block_counts[(func, block)] += 1

    def record_access(self, op_uid: int, obj_id: str) -> None:
        self.op_object_counts.setdefault(op_uid, Counter())[obj_id] += 1

    def record_malloc(self, obj_id: str, size: int) -> None:
        self.heap_sizes[obj_id] += size

    # -- queries ------------------------------------------------------------------------

    def block_frequency(self, func: str, block: str) -> float:
        return float(self.block_counts.get((func, block), 0))

    def op_frequency(self, op_uid: int) -> int:
        """Total dynamic executions of one memory operation."""
        counts = self.op_object_counts.get(op_uid)
        return sum(counts.values()) if counts else 0

    def object_access_counts(self) -> Counter:
        totals: Counter = Counter()
        for counts in self.op_object_counts.values():
            totals.update(counts)
        return totals

    def frequency_fn(self):
        """A ``(func, block) -> float`` callable for graph construction."""
        return self.block_frequency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<profile: {self.instructions_executed} insts, "
            f"{len(self.block_counts)} blocks, {len(self.heap_sizes)} heap sites>"
        )
