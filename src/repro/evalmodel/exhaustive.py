"""Exhaustive search over data-object mappings (Figure 9).

Section 4.3: "we present two graphs which represent an exhaustive search
of all the possible data object mappings to two clusters for the
rawcaudio and rawdaudio benchmarks ... each point represents the
performance of a possible data object partitioning normalized to the
worst performing partitioning.  The shading of each point indicates the
relative data object size balance between the clusters."

Objects are enumerated at the granularity of the access-pattern merge
groups (objects merged together can never be split, so enumerating them
jointly would only produce duplicate points).  The first group is pinned
to cluster 0 — with two symmetric clusters, mirrored mappings have
identical cost.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..machine import Machine


class MappingPoint:
    """One evaluated object mapping."""

    def __init__(
        self,
        mapping: Dict[str, int],
        cycles: float,
        cluster_bytes: List[int],
    ):
        self.mapping = mapping
        self.cycles = cycles
        self.cluster_bytes = cluster_bytes

    @property
    def imbalance(self) -> float:
        """0.0 = perfectly balanced byte split, 1.0 = everything on one
        cluster (this is the paper's point shading)."""
        total = sum(self.cluster_bytes)
        if total == 0:
            return 0.0
        share = max(self.cluster_bytes) / total
        return 2.0 * share - 1.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<mapping {self.cycles:.0f} cycles, imb={self.imbalance:.2f}>"


class ExhaustiveResult:
    """All mappings for one benchmark plus the named schemes' points."""

    def __init__(self, points: List[MappingPoint]):
        self.points = points
        self.scheme_points: Dict[str, MappingPoint] = {}

    @property
    def worst_cycles(self) -> float:
        return max(p.cycles for p in self.points)

    @property
    def best_cycles(self) -> float:
        return min(p.cycles for p in self.points)

    def normalized(self, point: MappingPoint) -> float:
        """Performance relative to the worst mapping (>= 1.0)."""
        return self.worst_cycles / point.cycles if point.cycles else 0.0

    def best_improvement(self) -> float:
        """How much better the best mapping is than the worst."""
        return self.worst_cycles / self.best_cycles if self.best_cycles else 0.0


def exhaustive_search(
    prepared,
    machine: Machine,
    max_groups: int = 12,
    scheme_homes: Optional[Dict[str, Dict[str, int]]] = None,
) -> ExhaustiveResult:
    """Evaluate every object-group mapping (2-cluster machines only).

    ``prepared`` is a :class:`repro.pipeline.PreparedProgram`;
    ``scheme_homes`` optionally maps scheme labels (e.g. ``"gdp"``) to
    object placements whose points should be marked on the result.
    """
    from ..pipeline.schemes import run_scheme  # local import: avoids a cycle

    if machine.num_clusters != 2:
        raise ValueError("exhaustive search is defined for 2 clusters")
    groups = sorted(
        prepared.merge.object_groups(), key=lambda g: min(g.object_ids)
    )
    if len(groups) > max_groups:
        raise ValueError(
            f"{len(groups)} object groups exceed max_groups={max_groups}; "
            "exhaustive search would be infeasible"
        )
    objects = prepared.objects

    points: List[MappingPoint] = []
    n = len(groups)
    combos = 1 << max(n - 1, 0)
    for bits in range(combos):
        mapping: Dict[str, int] = {}
        cluster_bytes = [0, 0]
        for i, group in enumerate(groups):
            cluster = 0 if i == 0 else (bits >> (i - 1)) & 1
            for obj in group.object_ids:
                mapping[obj] = cluster
            cluster_bytes[cluster] += objects.size_of(group.object_ids)
        outcome = run_scheme(
            prepared, machine, "gdp", object_home=mapping
        )
        points.append(MappingPoint(mapping, outcome.cycles, cluster_bytes))

    result = ExhaustiveResult(points)
    for label, homes in (scheme_homes or {}).items():
        result.scheme_points[label] = _locate(result, homes, groups, objects)
    return result


def _locate(result, homes, groups, objects) -> MappingPoint:
    """Find (or synthesise) the mapping point matching a scheme's homes,
    accounting for the cluster-mirroring symmetry."""
    signature = tuple(homes.get(min(g.object_ids), 0) for g in groups)
    mirrored = tuple(1 - c for c in signature)
    for point in result.points:
        psig = tuple(point.mapping[min(g.object_ids)] for g in groups)
        if psig == signature or psig == mirrored:
            return point
    raise KeyError("scheme mapping not found among enumerated points")
