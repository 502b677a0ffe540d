"""Custom machine models: scaling clusters and sweeping move latency.

Shows the machine-description API: the paper's 2-cluster preset, a
4-cluster scale-up, a heterogeneous 2-cluster machine, and a wider
intercluster bus — and how GDP behaves on each.

Run:  python examples/custom_machine.py
"""

from repro import RunConfig
from repro.bench import get
from repro.evalmodel import format_table
from repro.machine import (
    ClusterConfig,
    FUClass,
    InterclusterNetwork,
    Machine,
    four_cluster_machine,
    heterogeneous_machine,
    two_cluster_machine,
)
from repro.pipeline import Pipeline, PreparedProgram

#: Recompute everything: these machines are throwaway experiments.  Run
#: exactly the requested scheme: a failure raises instead of falling back.
CONFIG = RunConfig(cache="off", fallback=False, retries=0)


def wide_bus_machine(move_latency: int = 5) -> Machine:
    """A hand-built machine: 2 beefy clusters and a 2-moves/cycle bus."""
    cluster = ClusterConfig(
        {FUClass.INT: 3, FUClass.FLOAT: 1, FUClass.MEM: 2, FUClass.BRANCH: 1},
        name="wide",
    )
    return Machine(
        [cluster, cluster], InterclusterNetwork(move_latency, bandwidth=2)
    )


def main() -> None:
    bench = get("mpeg2enc")
    prepared = PreparedProgram.from_source(bench.source, bench.name)
    print(f"benchmark: {bench.name} ({bench.description})\n")

    machines = {
        "paper 2-cluster": two_cluster_machine(move_latency=5),
        "4-cluster": four_cluster_machine(move_latency=5),
        "heterogeneous": heterogeneous_machine(),
        "wide bus": wide_bus_machine(move_latency=5),
    }

    rows = []
    for label, machine in machines.items():
        pipe = Pipeline(CONFIG, machine=machine)
        unified = pipe.run(prepared, "unified")
        gdp = pipe.run(prepared, "gdp")
        rows.append(
            [
                label,
                machine.num_clusters,
                f"{unified.cycles:.0f}",
                f"{gdp.cycles:.0f}",
                f"{unified.cycles / gdp.cycles:.3f}",
            ]
        )
    print(
        format_table(
            ["machine", "clusters", "unified cycles", "GDP cycles", "GDP rel"],
            rows,
        )
    )

    # Latency sweep on the paper's machine (the Fig. 7 -> 8b progression).
    print("\nmove-latency sweep (GDP relative to unified):")
    sweep_rows = []
    for latency in (1, 2, 5, 10, 15):
        pipe = Pipeline(CONFIG.replace(latency=latency))
        rel = pipe.compare(prepared, schemes=("gdp",))
        sweep_rows.append([latency, f"{rel['gdp']:.3f}"])
    print(format_table(["latency", "GDP vs unified"], sweep_rows))


if __name__ == "__main__":
    main()
