"""Data-movement roofline: how far a homing scheme sits from the I/O
optimum.

Following the red-blue pebble view of data-access complexity (Elango et
al., PAPERS.md), any execution must move at least

    ``LB = Σ_obj min(span(obj), traffic(obj))``

bytes through the memory system: each object's bytes must be touched at
least once each (its live *span* — the coalesced byte regions the
profile actually observed), and no object can cost more than the
traffic the program actually generates on it.  ``LB`` is therefore a
sound lower bound on bytes moved for *every* partitioning scheme, and

    ``ratio = (traffic + moved_words × WORD_BYTES) / LB  ≥  1.0``

is the scheme's distance from the data-movement optimum — 1.0 means
every byte crossed the memory system exactly once and no intercluster
word was wasted.  The bound is partition-independent (it depends only on
the profiled access stream), so one :class:`RooflineModel` per prepared
program serves all four schemes; only the ``dynamic_moves`` term varies.

The ratio surfaces in scheme reports (``repro partition`` /
``repro compare``), in :class:`~repro.resilience.report.RunReport` JSON,
and in the service's ``/v1/stats`` aggregate.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..analysis.affine import coalesce_intervals
from ..ir import Opcode

#: Bytes carried per intercluster move (one machine word).
WORD_BYTES = 4


def _access_width(op) -> int:
    """Bytes one execution of a memory op moves (type width, min 1)."""
    if op.opcode is Opcode.LOAD and op.dest is not None:
        return max(op.dest.ty.size(), 1)
    if op.opcode is Opcode.STORE and op.srcs:
        return max(op.srcs[0].ty.size(), 1)
    return 1


class RooflineModel:
    """Per-program I/O lower bound and per-object traffic/span totals.

    Built once per :class:`~repro.pipeline.prepared.PreparedProgram`;
    :meth:`report` then prices any scheme outcome's move count against
    the shared bound.
    """

    def __init__(
        self,
        spans: Dict[str, int],
        traffic: Dict[str, int],
    ):
        self.spans = spans
        self.traffic = traffic
        #: Bytes the program is proven to need through the memory system.
        self.lower_bound = sum(
            min(spans.get(obj, 0), bytes_moved)
            for obj, bytes_moved in traffic.items()
        )
        #: Bytes the profiled access stream actually moves (loads+stores).
        self.memory_traffic = sum(traffic.values())
        #: Live footprint: coalesced bytes ever touched, all objects.
        self.footprint = sum(spans.values())

    def ratio(self, dynamic_moves: float = 0.0) -> float:
        """Distance from the data-movement optimum (≥ 1.0 by construction:
        every lower-bound term is clamped by its object's real traffic)."""
        total = self.memory_traffic + float(dynamic_moves) * WORD_BYTES
        if self.lower_bound <= 0:
            return 1.0
        return total / self.lower_bound

    def report(self, dynamic_moves: float = 0.0) -> Dict[str, float]:
        """JSON-ready summary for one scheme outcome (deterministic)."""
        move_traffic = float(dynamic_moves) * WORD_BYTES
        return {
            "footprint_bytes": self.footprint,
            "memory_traffic_bytes": self.memory_traffic,
            "move_traffic_bytes": move_traffic,
            "total_traffic_bytes": self.memory_traffic + move_traffic,
            "lower_bound_bytes": self.lower_bound,
            "ratio": round(self.ratio(dynamic_moves), 4),
        }


def build_roofline(prepared) -> RooflineModel:
    """Derive the roofline from a prepared program's profile.

    * ``traffic(obj)`` — dynamic access count × access width, summed over
      every memory op that may touch ``obj`` (multi-object ops charge
      each candidate its own profiled count, so the total never
      undercounts any one object).
    * ``span(obj)`` — total bytes of the coalesced envelope regions the
      profile observed (static profiles use their sound region bounds),
      clamped to the object's size; objects with traffic but no recorded
      envelope fall back to their full size.
    """
    profile = prepared.profile
    objects = prepared.objects

    widths: Dict[int, int] = {}
    for func in prepared.module:
        for op in func.operations():
            if op.is_memory_access():
                widths[op.uid] = _access_width(op)

    traffic: Dict[str, int] = {}
    envelopes: Dict[str, List[Tuple[int, int]]] = {}
    whole: Dict[str, bool] = {}
    for uid, counts in profile.op_object_counts.items():
        width = widths.get(uid)
        if width is None:
            continue
        regions = profile.op_object_regions.get(uid, {})
        for obj, count in counts.items():
            if count <= 0:
                continue
            traffic[obj] = traffic.get(obj, 0) + int(count) * width
            region = regions.get(obj)
            if region is None:
                whole[obj] = True
            else:
                envelopes.setdefault(obj, []).append(
                    (region[0], region[1])
                )

    spans: Dict[str, int] = {}
    for obj in traffic:
        size = objects.objects[obj].size if obj in objects.objects else 0
        if whole.get(obj) or obj not in envelopes:
            spans[obj] = size
            continue
        covered = sum(
            hi - lo for lo, hi in coalesce_intervals(envelopes[obj])
        )
        spans[obj] = min(covered, size) if size > 0 else covered
    return RooflineModel(spans, traffic)


def roofline_for(prepared) -> RooflineModel:
    """:func:`build_roofline`, memoized in ``prepared.analyses`` (one
    model serves all schemes)."""
    return prepared.analyses.memo("roofline", lambda: build_roofline(prepared))
