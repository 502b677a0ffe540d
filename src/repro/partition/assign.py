"""Cluster binding and intercluster move insertion.

Given a per-operation cluster assignment, rewrite the function so every
value is read on the cluster that computes with it: for each virtual
register consumed on a cluster other than (all of) its definition
cluster(s), a copy register is created, an explicit ``ICMOVE`` is inserted
after each remote definition (a plain ``MOV`` after local ones, in the
rare mixed-definition case), and consuming operations are rewritten.

This realises the paper's machine model: "Transfers of values between
clusters are accomplished through explicit move operations that travel
through an interconnection network."
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir import Function, Opcode, Operation, VirtualRegister
from ..machine import Machine


class InsertionStats:
    """What move insertion did to one function."""

    def __init__(self):
        self.icmoves = 0
        self.local_copies = 0
        self.rewritten_uses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<insertion: {self.icmoves} icmoves, "
            f"{self.local_copies} local copies>"
        )


def insert_intercluster_moves(
    func: Function,
    assignment: Dict[int, int],
    machine: Machine,
    param_homes: Optional[Dict[int, int]] = None,
) -> InsertionStats:
    """Mutates ``func`` in place and extends ``assignment`` with the
    clusters of inserted operations.

    ``param_homes`` gives the cluster where each parameter value arrives
    (defaults to the majority cluster of its uses).
    """
    stats = InsertionStats()
    if machine.num_clusters == 1:
        return stats

    param_homes = dict(param_homes or {})

    # Collect defs and uses of every register.
    defs_of: Dict[int, List[Operation]] = {}
    use_clusters: Dict[int, Set[int]] = {}
    for op in func.operations():
        if op.dest is not None:
            defs_of.setdefault(op.dest.vid, []).append(op)
        for src in op.register_srcs():
            use_clusters.setdefault(src.vid, set()).add(assignment[op.uid])

    for p in func.params:
        if p.vid not in param_homes:
            clusters = use_clusters.get(p.vid)
            if clusters:
                counts: Dict[int, int] = {}
                for op in func.operations():
                    for src in op.register_srcs():
                        if src.vid == p.vid:
                            c = assignment[op.uid]
                            counts[c] = counts.get(c, 0) + 1
                param_homes[p.vid] = max(counts, key=lambda c: (counts[c], -c))
            else:
                param_homes[p.vid] = 0

    param_vids = {p.vid for p in func.params}

    def source_clusters(vid: int) -> Set[int]:
        clusters = {assignment[d.uid] for d in defs_of.get(vid, ())}
        if vid in param_vids:
            clusters.add(param_homes[vid])
        return clusters

    # Which (vreg, cluster) copies are needed?
    needs: Set[Tuple[int, int]] = set()
    for vid, clusters in use_clusters.items():
        sources = source_clusters(vid)
        if not sources:
            continue  # use of a never-defined register; verifier catches it
        for cu in clusters:
            if sources != {cu}:
                needs.add((vid, cu))

    if not needs:
        return stats

    # Create copy registers.
    copy_reg: Dict[Tuple[int, int], VirtualRegister] = {}
    reg_by_vid: Dict[int, VirtualRegister] = {}
    for op in func.operations():
        if op.dest is not None:
            reg_by_vid.setdefault(op.dest.vid, op.dest)
        for src in op.register_srcs():
            reg_by_vid.setdefault(src.vid, src)
    for p in func.params:
        reg_by_vid.setdefault(p.vid, p)
    for vid, cu in sorted(needs):
        base = reg_by_vid[vid]
        copy_reg[(vid, cu)] = func.new_vreg(base.ty, f"{base.name or 'v'}@c{cu}")

    inserted: Set[int] = set()

    def make_copy(vid: int, src_cluster: int, cu: int) -> Operation:
        base = reg_by_vid[vid]
        dest = copy_reg[(vid, cu)]
        if src_cluster == cu:
            op = Operation(Opcode.MOV, dest, [base])
            stats.local_copies += 1
        else:
            op = Operation(
                Opcode.ICMOVE,
                dest,
                [base],
                attrs={"from": src_cluster, "to": cu},
            )
            stats.icmoves += 1
        assignment[op.uid] = cu
        inserted.add(op.uid)
        return op

    # Insert copies after each definition (and at entry for parameters).
    needed_vids: Dict[int, List[int]] = {}
    for vid, cu in sorted(needs):
        needed_vids.setdefault(vid, []).append(cu)

    for block in func:
        i = 0
        while i < len(block.ops):
            op = block.ops[i]
            if op.uid not in inserted and op.dest is not None:
                vid = op.dest.vid
                if vid in needed_vids:
                    offset = 1
                    for cu in sorted(needed_vids[vid]):
                        block.insert(
                            i + offset, make_copy(vid, assignment[op.uid], cu)
                        )
                        offset += 1
                    i += offset - 1
            i += 1

    entry = func.entry
    at = 0
    for p in func.params:
        if p.vid in needed_vids:
            for cu in sorted(needed_vids[p.vid]):
                entry.insert(at, make_copy(p.vid, param_homes[p.vid], cu))
                at += 1

    # Rewrite uses on clusters that now own a copy.
    for block in func:
        for op in block.ops:
            if op.uid in inserted:
                continue
            cu = assignment[op.uid]
            for src in list(op.register_srcs()):
                key = (src.vid, cu)
                if key in copy_reg:
                    stats.rewritten_uses += op.replace_src(src, copy_reg[key])
    return stats
