"""Ablation — Terechko-style global-value placement policies.

Terechko et al. (CASES'03) compared unified / round-robin / affinity
placements of global values and "concluded that data partitioning must
consider the consuming operations of data objects".  This bench runs
those simple policies through the same locked phase-2 pipeline as GDP.
"""

from functools import lru_cache

from harness import outcome, prepared

from repro.evalmodel import arithmetic_mean, format_table
from repro.machine import two_cluster_machine
from repro.partition import (
    affinity_homes,
    round_robin_homes,
    single_cluster_homes,
    size_balanced_homes,
)
from repro.pipeline.schemes import run_scheme

SAMPLE = ("rawcaudio", "rawdaudio", "fsed", "pegwit", "huffman", "latnrm")
LAT = 5

POLICIES = {
    "one-cluster": lambda prep, k: single_cluster_homes(prep.objects, k),
    "round-robin": lambda prep, k: round_robin_homes(prep.objects, k),
    "size-balanced": lambda prep, k: size_balanced_homes(prep.objects, k),
    "affinity": lambda prep, k: affinity_homes(
        prep.objects, prep.object_access_counts(), k
    ),
}


@lru_cache(maxsize=None)
def policy_outcome(name: str, policy: str):
    prep = prepared(name)
    machine = two_cluster_machine(move_latency=LAT)
    homes = POLICIES[policy](prep, machine.num_clusters)
    return run_scheme(prep, machine, "gdp", object_home=homes)


def compute():
    rows = []
    for name in SAMPLE:
        base = outcome(name, "unified", LAT).cycles
        row = [name, round(base / outcome(name, "gdp", LAT).cycles, 3)]
        for policy in POLICIES:
            row.append(round(base / policy_outcome(name, policy).cycles, 3))
        rows.append(row)
    return rows


def test_ablation_global_value_policies(benchmark):
    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print()
    print("Ablation: object placement policy (relative perf vs unified)")
    print(format_table(["benchmark", "GDP"] + list(POLICIES), rows))
    gdp_avg = arithmetic_mean([r[1] for r in rows])
    rr_avg = arithmetic_mean([r[3] for r in rows])
    print(f"\naverages: GDP {gdp_avg:.3f}, round-robin {rr_avg:.3f}")
    # GDP considers consuming operations; blind round-robin should lose.
    assert gdp_avg >= rr_avg - 0.02


def test_policies_cover_all_objects():
    prep = prepared("rawcaudio")
    for policy, fn in POLICIES.items():
        homes = fn(prep, 2)
        assert set(homes) == set(prep.objects.ids()), policy
        assert all(c in (0, 1) for c in homes.values())
