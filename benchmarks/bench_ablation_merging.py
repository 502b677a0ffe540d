"""Ablation — access-pattern merges vs slack-based merging (§3.3.1).

The paper evaluated and rejected merging low-slack dependent operations
into the data-partitioning groups: "merging based on computation
dependencies can negatively affect the resulting object partitioning.
This occurred because fewer groupings of objects allowed for more freedom
and flexibility in the partitioning process."
"""

from functools import lru_cache

from harness import outcome, prepared

from repro.evalmodel import arithmetic_mean, format_table
from repro.machine import two_cluster_machine
from repro.partition import slack_merge
from repro.partition.gdp import gdp_partition
from repro.pipeline.schemes import run_scheme
from repro.schedule import DependenceGraph

SAMPLE = ("rawcaudio", "rawdaudio", "fsed", "g721enc", "gsmenc", "fir")
LAT = 5


@lru_cache(maxsize=None)
def slack_merged_outcome(name: str):
    prep = prepared(name)
    machine = two_cluster_machine(move_latency=LAT)
    depgraphs = [
        DependenceGraph(block, machine.latency_of)
        for func in prep.module
        for block in func
        if block.ops
    ]
    merge = slack_merge(prep.program_graph, prep.objects, depgraphs)
    dp = gdp_partition(
        prep.module,
        prep.objects,
        machine.num_clusters,
        block_freq=prep.block_freq,
        merge=merge,
        program_graph=prep.program_graph,
    )
    return run_scheme(prep, machine, "gdp", object_home=dp.object_home)


def compute():
    rows = []
    for name in SAMPLE:
        base = outcome(name, "unified", LAT).cycles
        access = base / outcome(name, "gdp", LAT).cycles
        slack = base / slack_merged_outcome(name).cycles
        rows.append([name, round(access, 3), round(slack, 3)])
    return rows


def test_ablation_merge_strategy(benchmark):
    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print()
    print("Ablation: GDP coarsening strategy (relative perf vs unified)")
    print(format_table(["benchmark", "access-pattern", "slack-merge"], rows))
    access_avg = arithmetic_mean([r[1] for r in rows])
    slack_avg = arithmetic_mean([r[2] for r in rows])
    print(f"\naverages: access-pattern {access_avg:.3f}, slack {slack_avg:.3f}")
    # The paper's choice should not lose to the rejected variant.
    assert access_avg >= slack_avg - 0.05


def test_slack_merge_produces_fewer_groups():
    """Slack merging glues dependent ops into groups, so it can only
    reduce (or keep) the number of free placement units."""
    prep = prepared("rawcaudio")
    machine = two_cluster_machine(move_latency=LAT)
    depgraphs = [
        DependenceGraph(block, machine.latency_of)
        for func in prep.module
        for block in func
        if block.ops
    ]
    merged = slack_merge(prep.program_graph, prep.objects, depgraphs)
    assert merged.group_count() <= prep.merge.group_count()
