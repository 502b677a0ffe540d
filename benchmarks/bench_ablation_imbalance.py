"""Ablation — the METIS imbalance knob (§4.3).

Paper: "the object mappings at better performance, but worse memory
balance, can be achieved by allowing for more imbalance of the resulting
partition in METIS."  This sweep relaxes GDP's size-balance tolerance and
reports performance and the resulting byte split.
"""

from functools import lru_cache

from harness import outcome, prepared

from repro.evalmodel import format_table
from repro.machine import two_cluster_machine
from repro.partition.gdp import GDPConfig, gdp_partition
from repro.pipeline.schemes import run_scheme

SAMPLE = ("rawcaudio", "rawdaudio", "sobel", "fsed")
RATIOS = (1.05, 1.2, 1.5, 2.0, 4.0)
LAT = 5


@lru_cache(maxsize=None)
def swept(name: str, ratio: float):
    prep = prepared(name)
    machine = two_cluster_machine(move_latency=LAT)
    config = GDPConfig(size_imbalance=ratio)
    dp = gdp_partition(
        prep.module,
        prep.objects,
        machine.num_clusters,
        block_freq=prep.block_freq,
        config=config,
        program_graph=prep.program_graph,
        merge=prep.merge,
    )
    out = run_scheme(prep, machine, "gdp", object_home=dp.object_home)
    bytes_split = dp.cluster_bytes(prep.objects)
    return out, bytes_split


def compute():
    rows = []
    for name in SAMPLE:
        base = outcome(name, "unified", LAT).cycles
        for ratio in RATIOS:
            out, split = swept(name, ratio)
            total = sum(split) or 1
            rows.append(
                [
                    name,
                    ratio,
                    round(base / out.cycles, 3),
                    f"{split[0]}/{split[1]}",
                    round(max(split) / total, 2),
                ]
            )
    return rows


def test_ablation_imbalance_sweep(benchmark):
    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print()
    print("Ablation: GDP size-imbalance tolerance sweep")
    print(
        format_table(
            ["benchmark", "ub", "rel perf", "bytes c0/c1", "max share"], rows
        )
    )
    # Relaxing balance never breaks the pipeline and keeps results sane.
    assert all(r[2] > 0.3 for r in rows)


def test_imbalance_monotone_freedom():
    """With a looser tolerance the partitioner can only do as well or
    better on cut-driven placement for at least one benchmark."""
    improved = 0
    for name in SAMPLE:
        tight, _ = swept(name, RATIOS[0])
        loose, _ = swept(name, RATIOS[-1])
        if loose.cycles <= tight.cycles * 1.02:
            improved += 1
    assert improved >= len(SAMPLE) // 2
