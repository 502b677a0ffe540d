"""Terechko-style global-value placement schemes.

Terechko et al. [21] "evaluated several different schemes of partitioning
data, including unified, round-robin, affinity and 2-pass schemes" for
global values on clustered VLIWs.  These simple object-placement policies
are kept as ablation baselines: each produces an ``object_home`` map that
plugs into the locked phase-2 RHOP run (via
``run_scheme(..., "gdp", object_home=...)``).
"""

from __future__ import annotations

from typing import Dict

from ..analysis.objects import ObjectTable


def single_cluster_homes(objects: ObjectTable, k: int = 2) -> Dict[str, int]:
    """Every object on cluster 0 (Terechko's "unified" placement: all
    globals in one memory)."""
    return {obj.id: 0 for obj in objects}


def round_robin_homes(objects: ObjectTable, k: int = 2) -> Dict[str, int]:
    """Objects dealt round-robin across cluster memories in declaration
    order — balances counts, ignores both sizes and affinity."""
    homes: Dict[str, int] = {}
    for i, obj_id in enumerate(sorted(objects.ids())):
        homes[obj_id] = i % k
    return homes


def size_balanced_homes(objects: ObjectTable, k: int = 2) -> Dict[str, int]:
    """Largest-first size balancing (no affinity): each object goes to the
    currently lightest memory."""
    loads = [0] * k
    homes: Dict[str, int] = {}
    for obj in sorted(objects, key=lambda o: (-o.size, o.id)):
        cluster = min(range(k), key=lambda c: loads[c])
        homes[obj.id] = cluster
        loads[cluster] += obj.size
    return homes


def affinity_homes(
    objects: ObjectTable,
    access_counts: Dict[str, int],
    k: int = 2,
    balance: float = 1.5,
) -> Dict[str, int]:
    """Affinity placement: objects in dynamic-access order, each to the
    lightest cluster by *access traffic* so hot objects spread out, with a
    byte-balance cap of ``balance`` x the even split."""
    total = objects.total_size()
    cap = balance * total / k if total else float("inf")
    byte_loads = [0.0] * k
    traffic_loads = [0.0] * k
    homes: Dict[str, int] = {}
    ordered = sorted(
        objects, key=lambda o: (-access_counts.get(o.id, 0), o.id)
    )
    for obj in ordered:
        choices = sorted(range(k), key=lambda c: (traffic_loads[c], c))
        cluster = next(
            (c for c in choices if byte_loads[c] + obj.size <= cap or obj.size > cap),
            choices[0],
        )
        homes[obj.id] = cluster
        byte_loads[cluster] += obj.size
        traffic_loads[cluster] += access_counts.get(obj.id, 0)
    return homes
