"""Access-pattern merges (Section 3.3.1 of the paper).

Coarsening of the program-level graph before data partitioning:

* "when a single memory operation accesses multiple data objects, these
  objects are merged together" — placing them apart would force transfers;
* "when multiple memory operations access a single data object, those
  memory operations will be merged together.  Any other objects accessed
  by these operations will then be merged in as well."

Both rules are one transitive closure: union every memory operation with
every object it may access.  The resulting groups are the atomic units the
data partitioner places.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set

from ..analysis.dfg import ProgramGraph
from ..analysis.objects import ObjectTable


class UnionFind:
    """Union-find with path compression and union by size."""

    def __init__(self):
        self.parent: Dict[Hashable, Hashable] = {}
        self.size: Dict[Hashable, int] = {}

    def find(self, x: Hashable) -> Hashable:
        if x not in self.parent:
            self.parent[x] = x
            self.size[x] = 1
            return x
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: Hashable, b: Hashable) -> Hashable:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra

    def same(self, a: Hashable, b: Hashable) -> bool:
        return self.find(a) == self.find(b)


class MergedGroup:
    """One coarsened node: a set of operations plus the objects they touch."""

    def __init__(self, gid: int):
        self.gid = gid
        self.op_uids: Set[int] = set()
        self.object_ids: Set[str] = set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<group {self.gid}: {len(self.op_uids)} ops, "
            f"objects={sorted(self.object_ids)}>"
        )


class MergeResult:
    """Outcome of the access-pattern merge phase."""

    def __init__(self):
        self.groups: Dict[int, MergedGroup] = {}
        self.group_of_op: Dict[int, int] = {}
        self.group_of_object: Dict[str, int] = {}

    def object_groups(self) -> List[MergedGroup]:
        """Groups that contain at least one data object."""
        return [g for g in self.groups.values() if g.object_ids]

    def group_count(self) -> int:
        return len(self.groups)


def access_pattern_merge(
    graph: ProgramGraph, objects: ObjectTable
) -> MergeResult:
    """Coarsen the program graph by the paper's access-pattern rules."""
    uf = UnionFind()

    # Ensure every op node and every object exists in the structure.
    for uid in graph.nodes:
        uf.find(("op", uid))
    for obj_id in objects.ids():
        uf.find(("obj", obj_id))

    # The single transitive rule: op <-> each object it may access.
    for node in graph.memory_nodes():
        for obj_id in node.op.mem_objects():
            uf.union(("op", node.uid), ("obj", obj_id))

    result = MergeResult()
    root_to_gid: Dict[Hashable, int] = {}

    def group_for(key: Hashable) -> MergedGroup:
        root = uf.find(key)
        if root not in root_to_gid:
            gid = len(root_to_gid)
            root_to_gid[root] = gid
            result.groups[gid] = MergedGroup(gid)
        return result.groups[root_to_gid[root]]

    for uid in graph.nodes:
        group = group_for(("op", uid))
        group.op_uids.add(uid)
        result.group_of_op[uid] = group.gid
    for obj_id in objects.ids():
        group = group_for(("obj", obj_id))
        group.object_ids.add(obj_id)
        result.group_of_object[obj_id] = group.gid
    return result


#: :func:`slack_merge` joins dependent operations whose flow edge has at
#: most this much schedule slack.
SLACK_THRESHOLD = 1


def slack_merge(
    graph: ProgramGraph,
    objects: ObjectTable,
    depgraphs,
) -> MergeResult:
    """Alternative coarsening that additionally merges low-slack dependent
    operations (the variant Section 3.3.1 evaluated and rejected: "merging
    based on computation dependencies can negatively affect the resulting
    object partitioning").  Kept for the ablation benchmark.

    ``depgraphs`` is an iterable of :class:`~repro.schedule.DependenceGraph`
    covering the blocks of the program.
    """
    uf = UnionFind()
    for uid in graph.nodes:
        uf.find(("op", uid))
    for obj_id in objects.ids():
        uf.find(("obj", obj_id))
    for node in graph.memory_nodes():
        for obj_id in node.op.mem_objects():
            uf.union(("op", node.uid), ("obj", obj_id))

    for dg in depgraphs:
        for edge in dg.flow_edges():
            if dg.slack(edge) <= SLACK_THRESHOLD:
                uf.union(("op", edge.src), ("op", edge.dst))

    result = MergeResult()
    root_to_gid: Dict[Hashable, int] = {}

    def group_for(key: Hashable) -> MergedGroup:
        root = uf.find(key)
        if root not in root_to_gid:
            gid = len(root_to_gid)
            root_to_gid[root] = gid
            result.groups[gid] = MergedGroup(gid)
        return result.groups[root_to_gid[root]]

    for uid in graph.nodes:
        group = group_for(("op", uid))
        group.op_uids.add(uid)
        result.group_of_op[uid] = group.gid
    for obj_id in objects.ids():
        group = group_for(("obj", obj_id))
        group.object_ids.add(obj_id)
        result.group_of_object[obj_id] = group.gid
    return result
