"""Ablation — RHOP vs Bottom-Up Greedy as the phase-2 partitioner.

RHOP's multilevel, estimate-driven refinement should beat the classic
greedy BUG assignment (Ellis's Bulldog) under identical GDP object homes,
mirroring the motivation for RHOP in the PLDI'03 paper.
"""

from functools import lru_cache

from harness import outcome, prepared, register_cache

from repro.evalmodel import arithmetic_mean, format_table
from repro.machine import two_cluster_machine
from repro.partition import BUG, memory_locks
from repro.pipeline.schemes import SchemeOutcome, finalize_and_evaluate

SAMPLE = ("rawcaudio", "rawdaudio", "fsed", "fir", "latnrm", "g721dec")
LAT = 5


@register_cache
@lru_cache(maxsize=None)
def bug_outcome(name: str) -> SchemeOutcome:
    prep = prepared(name)
    machine = two_cluster_machine(move_latency=LAT)
    object_home = outcome(name, "gdp", LAT).object_home
    module, _ = prep.fresh_copy()
    locks = memory_locks(module, object_home, prep.object_access_counts())
    bug = BUG(machine.as_partitioned())
    result = bug.partition_module(module, locks)
    eval_result = finalize_and_evaluate(
        prep, machine, module, result.assignment, result
    )
    return SchemeOutcome(
        "gdp+bug", machine, module, result.assignment, object_home,
        eval_result, {}, 1,
    )


def compute():
    rows = []
    for name in SAMPLE:
        base = outcome(name, "unified", LAT).cycles
        rhop_rel = base / outcome(name, "gdp", LAT).cycles
        bug_rel = base / bug_outcome(name).cycles
        rows.append([name, round(rhop_rel, 3), round(bug_rel, 3)])
    return rows


def test_ablation_rhop_vs_bug(benchmark):
    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print()
    print("Ablation: phase-2 computation partitioner under GDP homes")
    print(format_table(["benchmark", "GDP+RHOP", "GDP+BUG"], rows))
    rhop_avg = arithmetic_mean([r[1] for r in rows])
    bug_avg = arithmetic_mean([r[2] for r in rows])
    print(f"\naverages: RHOP {rhop_avg:.3f}, BUG {bug_avg:.3f}")
    assert rhop_avg >= bug_avg - 0.02, "RHOP should not lose to greedy BUG"


def test_bug_respects_memory_locks():
    out = bug_outcome("rawcaudio")
    prep = prepared("rawcaudio")
    for func in out.module:
        for op in func.operations():
            if op.is_memory_access() and op.mem_objects():
                homes = {out.object_home[o] for o in op.mem_objects()
                         if o in out.object_home}
                if len(homes) == 1:
                    assert out.assignment[op.uid] in homes
